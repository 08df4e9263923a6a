package workload

import (
	"strings"
	"testing"

	"github.com/reliable-cda/cda/internal/nl2sql"
	"github.com/reliable-cda/cda/internal/sqldb"
	"github.com/reliable-cda/cda/internal/timeseries"
)

func TestBarometerSeriesShape(t *testing.T) {
	p := DefaultBarometerParams()
	xs := BarometerSeries(p)
	if len(xs) != 120 {
		t.Fatalf("len = %d", len(xs))
	}
	// Figure 1 ground truth: detector finds period 6 with confidence
	// in the vicinity of 0.9.
	s, err := timeseries.DetectSeasonality(xs, 24)
	if err != nil {
		t.Fatal(err)
	}
	if s.Period != BarometerPeriod {
		t.Errorf("period = %d", s.Period)
	}
	if s.Confidence < 0.8 || s.Confidence > 0.98 {
		t.Errorf("confidence = %v, want ≈0.9", s.Confidence)
	}
}

func TestBarometerDeterministic(t *testing.T) {
	a := BarometerSeries(DefaultBarometerParams())
	b := BarometerSeries(DefaultBarometerParams())
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("series not deterministic")
		}
	}
}

func TestBarometerTable(t *testing.T) {
	tbl := BarometerTable(DefaultBarometerParams())
	if tbl.NumRows() != 120 || tbl.NumCols() != 2 {
		t.Fatalf("shape = %dx%d", tbl.NumRows(), tbl.NumCols())
	}
	if tbl.At(0, 0).I != 1 {
		t.Error("months must start at 1")
	}
}

func TestEmploymentTable(t *testing.T) {
	tbl := EmploymentTable(1)
	if tbl.NumRows() != 10*5*2 {
		t.Errorf("rows = %d", tbl.NumRows())
	}
	vals, err := tbl.DistinctStrings("canton")
	if err != nil || len(vals) != 5 {
		t.Errorf("cantons = %v, %v", vals, err)
	}
}

func TestNewSwissDomain(t *testing.T) {
	d := NewSwissDomain(1)
	if d.Catalog.Len() != 3 {
		t.Errorf("catalog len = %d", d.Catalog.Len())
	}
	if _, err := d.DB.Get("barometer"); err != nil {
		t.Error(err)
	}
	// KG inference ran: Barometer lifted to swiss:Dataset.
	if len(d.KG.Match("swiss:Barometer", "rdf:type", "swiss:Dataset")) != 1 {
		t.Error("KG inference missing")
	}
	// Vocabulary covers the Figure 1 opening phrase.
	if got := d.Vocab.Canonicals("working force"); len(got) != 2 {
		t.Errorf("canonicals = %v", got)
	}
	// Figure 1 discovery: the opening question surfaces both labour
	// datasets.
	recs := d.Catalog.Search(d.Vocab.Expand(Figure1Turns()[0]), 5, d.Now)
	ids := map[string]bool{}
	for _, r := range recs {
		ids[r.Dataset.ID] = true
	}
	if !ids["barometer"] || !ids["employment"] {
		t.Errorf("discovery ids = %v", ids)
	}
}

func TestFigure1Turns(t *testing.T) {
	turns := Figure1Turns()
	if len(turns) != 4 || !strings.Contains(turns[3], "seasonality") {
		t.Errorf("turns = %v", turns)
	}
}

func TestGenNL2SQLGoldExecutes(t *testing.T) {
	w := GenNL2SQL(100, 0.5, 7)
	if len(w.Pairs) != 100 {
		t.Fatalf("pairs = %d", len(w.Pairs))
	}
	eng := sqldb.NewEngine(w.DB)
	for _, qa := range w.Pairs {
		if _, err := eng.Query(qa.GoldSQL); err != nil {
			t.Fatalf("gold %q does not execute: %v", qa.GoldSQL, err)
		}
	}
}

func TestGenNL2SQLQuestionsParse(t *testing.T) {
	w := GenNL2SQL(100, 0.5, 7)
	for _, qa := range w.Pairs {
		if _, err := nl2sql.ParseIntent(qa.Question); err != nil {
			t.Fatalf("question %q unparseable: %v", qa.Question, err)
		}
	}
}

func TestGenNL2SQLSynonymRate(t *testing.T) {
	wNone := GenNL2SQL(200, 0, 7)
	for _, qa := range wNone.Pairs {
		if qa.UsesSynonyms {
			t.Fatal("rate-0 workload contains synonyms")
		}
	}
	wAll := GenNL2SQL(200, 1, 7)
	syn := 0
	for _, qa := range wAll.Pairs {
		if qa.UsesSynonyms {
			syn++
		}
	}
	if syn < 150 {
		t.Errorf("rate-1 workload has only %d/200 synonym questions", syn)
	}
}

func TestGenNL2SQLDeterministic(t *testing.T) {
	a := GenNL2SQL(50, 0.5, 3)
	b := GenNL2SQL(50, 0.5, 3)
	for i := range a.Pairs {
		if a.Pairs[i] != b.Pairs[i] {
			t.Fatal("workload not deterministic")
		}
	}
}

func TestGenNL2SQLFabrications(t *testing.T) {
	w := GenNL2SQL(10, 0.5, 3)
	if len(w.Fabrications) == 0 {
		t.Fatal("no fabrications")
	}
	// Fabrications must NOT be valid identifiers.
	valid := map[string]bool{}
	for _, tbl := range w.DB.Tables() {
		valid[tbl.Name] = true
		for _, c := range tbl.Schema() {
			valid[c.Name] = true
		}
	}
	for _, f := range w.Fabrications {
		if valid[f] {
			t.Errorf("fabrication %q is a real identifier", f)
		}
	}
}

func TestGenVectors(t *testing.T) {
	p := VectorParams{N: 100, Queries: 10, Dim: 8, Clusters: 4, Spread: 1, Scale: 5, Seed: 2}
	data, queries := GenVectors(p)
	if len(data) != 100 || len(queries) != 10 {
		t.Fatalf("sizes = %d %d", len(data), len(queries))
	}
	if len(data[0]) != 8 {
		t.Errorf("dim = %d", len(data[0]))
	}
	// Deterministic.
	d2, _ := GenVectors(p)
	for i := range data {
		for j := range data[i] {
			if data[i][j] != d2[i][j] {
				t.Fatal("vectors not deterministic")
			}
		}
	}
}

func TestGenDiscovery(t *testing.T) {
	w := GenDiscovery(60, 7)
	if len(w.Queries) != 60 {
		t.Fatalf("queries = %d", len(w.Queries))
	}
	if w.Catalog.Len() != 6 {
		t.Errorf("catalog len = %d", w.Catalog.Len())
	}
	var mismatched int
	for _, q := range w.Queries {
		if _, err := w.Catalog.Get(q.Target); err != nil {
			t.Fatalf("target %q not in catalog", q.Target)
		}
		if q.Mismatch {
			mismatched++
		}
	}
	if mismatched == 0 || mismatched == len(w.Queries) {
		t.Errorf("mismatch count = %d, want a mix", mismatched)
	}
	// Deterministic.
	w2 := GenDiscovery(60, 7)
	for i := range w.Queries {
		if w.Queries[i] != w2.Queries[i] {
			t.Fatal("discovery workload not deterministic")
		}
	}
}

func TestGenBiasLogs(t *testing.T) {
	logs := GenBiasLogs(2, 10, 3)
	if len(logs.Planted) != 2 || len(logs.GroupTerms) != 6 {
		t.Fatalf("planted=%v groups=%v", logs.Planted, logs.GroupTerms)
	}
	if len(logs.Corpus) != 6*10*2 {
		t.Errorf("corpus = %d docs", len(logs.Corpus))
	}
	// Oversized biased count is clamped.
	all := GenBiasLogs(99, 5, 3)
	if len(all.Planted) != 6 {
		t.Errorf("clamped planted = %d", len(all.Planted))
	}
}
