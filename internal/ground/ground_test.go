package ground

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/reliable-cda/cda/internal/kg"
	"github.com/reliable-cda/cda/internal/storage"
)

func fixtureKG() *kg.Store {
	st := kg.NewStore()
	st.Add(kg.Triple{S: "ex:Barometer", P: kg.PredLabel, O: "Swiss Labour Market Barometer", Source: "catalog"})
	st.Add(kg.Triple{S: "ex:Barometer", P: kg.PredSynonym, O: "workforce barometer", Source: "catalog"})
	st.Add(kg.Triple{S: "ex:Employment", P: kg.PredLabel, O: "employment", Source: "catalog"})
	st.Add(kg.Triple{S: "ex:LabourMarket", P: kg.PredLabel, O: "labour market", Source: "catalog"})
	// Deliberate label collision for ambiguity tests.
	st.Add(kg.Triple{S: "ex:MercuryPlanet", P: kg.PredLabel, O: "mercury", Source: "astro"})
	st.Add(kg.Triple{S: "ex:MercuryElement", P: kg.PredLabel, O: "mercury", Source: "chem"})
	return st
}

func fixtureDB() *storage.Database {
	db := storage.NewDatabase("swiss")
	emp := storage.NewTable("employment", storage.Schema{
		{Name: "year", Kind: storage.KindInt},
		{Name: "canton", Kind: storage.KindString, Description: "Swiss canton name"},
		{Name: "rate", Kind: storage.KindFloat, Description: "employment rate percentage"},
	})
	emp.MustAppendRow(storage.Int(2020), storage.Str("Zurich"), storage.Float(79.5))
	emp.MustAppendRow(storage.Int(2021), storage.Str("Geneva"), storage.Float(77.1))
	db.Put(emp)
	bar := storage.NewTable("barometer", storage.Schema{
		{Name: "month", Kind: storage.KindInt},
		{Name: "value", Kind: storage.KindFloat, Description: "barometer indicator value"},
	})
	bar.MustAppendRow(storage.Int(1), storage.Float(100.2))
	db.Put(bar)
	return db
}

func fixtureVocab() *Vocabulary {
	v := NewVocabulary()
	v.AddSynonym("working force", "labour market")
	v.AddSynonym("working force", "employment")
	v.AddSynonym("workforce", "employment")
	return v
}

func fixtureGrounder() *Grounder {
	return NewGrounder(fixtureKG(), fixtureDB(), fixtureVocab())
}

func TestVocabularyBasics(t *testing.T) {
	v := fixtureVocab()
	got := v.Canonicals("Working Force")
	if len(got) != 2 || got[0] != "labour market" {
		t.Errorf("canonicals = %v", got)
	}
	v.AddSynonym("working force", "labour market") // duplicate ignored
	if len(v.Canonicals("working force")) != 2 {
		t.Error("duplicate synonym added")
	}
	if got := v.Canonicals("unknown"); got != nil {
		t.Errorf("unknown canonicals = %v", got)
	}
}

func TestExpand(t *testing.T) {
	v := fixtureVocab()
	got := v.Expand("Give me an overview of the working force in Switzerland")
	if !strings.Contains(got, "labour market") || !strings.Contains(got, "employment") {
		t.Errorf("expanded = %q", got)
	}
	if !strings.Contains(got, "working force") {
		t.Error("expansion must preserve the original text")
	}
	plain := "completely unrelated text"
	if v.Expand(plain) != plain {
		t.Error("no-match expansion must be identity")
	}
}

func TestLinkEntitiesDirect(t *testing.T) {
	g := fixtureGrounder()
	links := g.LinkEntities("what is the Swiss labour market barometer?")
	if len(links) == 0 {
		t.Fatal("no entity links")
	}
	if links[0].Entity != "ex:Barometer" {
		t.Errorf("top link = %+v", links[0])
	}
	// The 4-gram match must outscore shorter matches.
	if links[0].Score != 1.0 {
		t.Errorf("top score = %v", links[0].Score)
	}
}

func TestLinkEntitiesViaVocabulary(t *testing.T) {
	g := fixtureGrounder()
	links := g.LinkEntities("overview of the working force")
	var found bool
	for _, l := range links {
		if l.Entity == "ex:LabourMarket" || l.Entity == "ex:Employment" {
			found = true
		}
	}
	if !found {
		t.Errorf("vocabulary-mediated linking failed: %v", links)
	}
}

func TestLinkEntitiesSuppressionOfSubspans(t *testing.T) {
	g := fixtureGrounder()
	links := g.LinkEntities("swiss labour market barometer")
	for _, l := range links {
		if l.Entity == "ex:LabourMarket" {
			t.Errorf("nested mention not suppressed: %v", links)
		}
	}
}

func TestLinkSchemaTableAndColumn(t *testing.T) {
	g := fixtureGrounder()
	links := g.LinkSchema("employment rate by canton")
	var gotTable, gotRate, gotCanton bool
	for _, l := range links {
		if l.Table == "employment" && l.Column == "" {
			gotTable = true
		}
		if l.Column == "rate" {
			gotRate = true
		}
		if l.Column == "canton" {
			gotCanton = true
		}
	}
	if !gotTable || !gotRate || !gotCanton {
		t.Errorf("schema links = %v", links)
	}
}

func TestLinkSchemaValue(t *testing.T) {
	g := fixtureGrounder()
	links := g.LinkSchema("employment in Zurich")
	var found bool
	for _, l := range links {
		if l.IsValue && l.Table == "employment" && l.Column == "canton" {
			found = true
		}
	}
	if !found {
		t.Errorf("value link missing: %v", links)
	}
}

func TestLinkSchemaVocabIndirection(t *testing.T) {
	g := fixtureGrounder()
	links := g.LinkSchema("statistics about the workforce")
	var found bool
	for _, l := range links {
		if l.Table == "employment" {
			found = true
		}
	}
	if !found {
		t.Errorf("workforce should link to employment via vocab: %v", links)
	}
}

func TestDetectAmbiguities(t *testing.T) {
	g := fixtureGrounder()
	ams := g.DetectAmbiguities("tell me about mercury")
	if len(ams) != 1 {
		t.Fatalf("ambiguities = %v", ams)
	}
	if ams[0].Term != "mercury" || len(ams[0].Options) != 2 || ams[0].Kind != "entity" {
		t.Errorf("ambiguity = %+v", ams[0])
	}
	if got := g.DetectAmbiguities("swiss labour market barometer"); len(got) != 0 {
		t.Errorf("unambiguous question flagged: %v", got)
	}
}

func TestGroundReport(t *testing.T) {
	g := fixtureGrounder()
	r := g.Ground("overview of the working force in Zurich")
	if !r.Grounded() {
		t.Error("report should be grounded")
	}
	if r.Expanded == r.Question {
		t.Error("expansion missing from report")
	}
	empty := g.Ground("xyzzy plugh")
	if empty.Grounded() {
		t.Errorf("nonsense should not ground: %+v", empty)
	}
}

func TestNameMatches(t *testing.T) {
	cases := []struct {
		ident, phrase string
		want          bool
	}{
		{"dept_id", "dept id", true},
		{"employees", "employee", true},
		{"rate", "rates", true},
		{"canton", "zurich", false},
	}
	for _, c := range cases {
		if got := nameMatches(c.ident, c.phrase); got != c.want {
			t.Errorf("nameMatches(%q,%q) = %v", c.ident, c.phrase, got)
		}
	}
}

func TestGrounderNilSources(t *testing.T) {
	g := NewGrounder(nil, nil, nil)
	if got := g.LinkEntities("anything"); got != nil {
		t.Error("nil KG must yield no links")
	}
	if got := g.LinkSchema("anything"); got != nil {
		t.Error("nil DB must yield no links")
	}
	r := g.Ground("anything")
	if r.Grounded() {
		t.Error("nil sources must not ground")
	}
}

func TestValueScanBudget(t *testing.T) {
	g := fixtureGrounder()
	// Budget 1 indexes only the alphabetically first value (Geneva);
	// Zurich must therefore not value-link.
	g.MaxValueScan = 1
	links := g.LinkSchema("employment in Zurich")
	for _, l := range links {
		if l.IsValue && strings.EqualFold(l.Mention, "zurich") {
			t.Errorf("budget exceeded: %v", links)
		}
	}
	if len(g.LinkSchema("employment in Geneva")) == 0 {
		t.Error("first value should still be indexed under budget")
	}
}

// TestLinkSchemaConcurrentFirstUse is the regression for the lazy
// value index: a fresh server's first asks arrive together, and every
// one of them must see the fully built index (run under -race).
func TestLinkSchemaConcurrentFirstUse(t *testing.T) {
	g := fixtureGrounder()
	want := fixtureGrounder().LinkSchema("employment in Zurich")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := g.LinkSchema("employment in Zurich"); !reflect.DeepEqual(got, want) {
				t.Errorf("concurrent first LinkSchema = %v, want %v", got, want)
			}
		}()
	}
	wg.Wait()
}
