package explain

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/reliable-cda/cda/internal/provenance"
	"github.com/reliable-cda/cda/internal/storage"
)

func chainGraph(t *testing.T) (*provenance.Graph, string) {
	t.Helper()
	g := provenance.NewGraph()
	src := g.AddNode(provenance.Node{Kind: provenance.KindSource, Label: "barometer", Meta: map[string]string{"uri": "https://arbeit.swiss/barometer"}})
	q := g.AddNode(provenance.Node{Kind: provenance.KindQuery, Label: "load", Meta: map[string]string{"query": "SELECT value FROM barometer"}})
	comp := g.AddNode(provenance.Node{Kind: provenance.KindComputation, Label: "seasonal decomposition", Meta: map[string]string{"code": "timeseries.Decompose(xs, 6)"}})
	ans := g.AddNode(provenance.Node{Kind: provenance.KindAnswer, Label: "period 6, confidence 90%"})
	for _, e := range [][2]string{{q, src}, {comp, q}, {ans, comp}} {
		if err := g.DerivedFrom(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return g, ans
}

func TestFromProvenance(t *testing.T) {
	g, ans := chainGraph(t)
	ex, err := FromProvenance(g, ans)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ex.Summary, "period 6") || !strings.Contains(ex.Summary, "seasonal decomposition") {
		t.Errorf("summary = %q", ex.Summary)
	}
	if !strings.Contains(ex.Code, "Decompose") || !strings.Contains(ex.Code, "SELECT value") {
		t.Errorf("code = %q", ex.Code)
	}
	if len(ex.Sources) != 1 || !strings.Contains(ex.Sources[0], "arbeit.swiss") {
		t.Errorf("sources = %v", ex.Sources)
	}
}

func TestFromProvenanceUnknownNode(t *testing.T) {
	g, _ := chainGraph(t)
	if _, err := FromProvenance(g, "missing"); err == nil {
		t.Error("unknown node must error")
	}
}

func TestConsistencyOfEquivalentOutcomes(t *testing.T) {
	g1, a1 := chainGraph(t)
	g2, a2 := chainGraph(t)
	e1, err := FromProvenance(g1, a1)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := FromProvenance(g2, a2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(e1, e2) {
		t.Errorf("equivalent outcomes explained differently:\n%+v\n%+v", e1, e2)
	}
}

func TestRenderVerbosityLevels(t *testing.T) {
	ex := Explanation{
		Summary: "The answer was derived.",
		Code:    "SELECT 1",
		Sources: []string{"src"},
		Caveats: []string{"only last 10 years used"},
	}
	full := ex.Render(1.0)
	mid := ex.Render(0.75)
	terse := ex.Render(0.5)
	expert := ex.Render(0.4)
	if !strings.Contains(full, "only last 10 years") || !strings.Contains(full, "SELECT 1") {
		t.Errorf("full = %q", full)
	}
	if !strings.Contains(mid, "only last 10 years") {
		t.Errorf("mid = %q", mid)
	}
	if strings.Contains(terse, "only last 10 years") || !strings.Contains(terse, "SELECT 1") {
		t.Errorf("terse = %q", terse)
	}
	if strings.Contains(expert, "SELECT 1") {
		t.Errorf("expert = %q", expert)
	}
	// Sources always present, at every verbosity.
	for _, r := range []string{full, mid, terse, expert} {
		if !strings.Contains(r, "Sources: src") {
			t.Errorf("sources dropped: %q", r)
		}
	}
}

func TestSummaryMultipleQueriesPlural(t *testing.T) {
	g := provenance.NewGraph()
	src := g.AddNode(provenance.Node{Kind: provenance.KindSource, Label: "s"})
	q1 := g.AddNode(provenance.Node{Kind: provenance.KindQuery, Label: "q1", Meta: map[string]string{"query": "SELECT 1"}})
	q2 := g.AddNode(provenance.Node{Kind: provenance.KindQuery, Label: "q2", Meta: map[string]string{"query": "SELECT 2"}})
	ans := g.AddNode(provenance.Node{Kind: provenance.KindAnswer, Label: "a"})
	for _, e := range [][2]string{{q1, src}, {q2, src}, {ans, q1}, {ans, q2}} {
		if err := g.DerivedFrom(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	ex, err := FromProvenance(g, ans)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ex.Summary, "2 queries") {
		t.Errorf("summary = %q", ex.Summary)
	}
}

func TestDescribeTable(t *testing.T) {
	tbl := storage.NewTable("employment", storage.Schema{
		{Name: "canton", Kind: storage.KindString},
		{Name: "rate", Kind: storage.KindFloat},
	})
	tbl.Description = "employment statistics"
	tbl.MustAppendRow(storage.Str("Zurich"), storage.Float(79.5))
	tbl.MustAppendRow(storage.Str("Bern"), storage.Float(75.25))
	tbl.MustAppendRow(storage.Str("Zurich"), storage.Null())
	s := DescribeTable(tbl)
	for _, want := range []string{
		"employment: 3 rows × 2 columns",
		"employment statistics",
		"canton (TEXT): 2 distinct",
		"Zurich (2)",
		"rate (FLOAT)",
		"range 75.25–79.5",
		"1 missing",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
	// Deterministic.
	if s != DescribeTable(tbl) {
		t.Error("summary not deterministic")
	}
}

func TestTrimNum(t *testing.T) {
	cases := map[float64]string{79.5: "79.5", 100: "100", 0.25: "0.25"}
	for in, want := range cases {
		if got := trimNum(in); got != want {
			t.Errorf("trimNum(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestSparkline(t *testing.T) {
	s := Sparkline([]float64{0, 1, 2, 3, 4, 5, 6, 7}, 60)
	if s != "▁▂▃▄▅▆▇█" {
		t.Errorf("ramp = %q", s)
	}
	if got := Sparkline(nil, 10); got != "" {
		t.Errorf("empty = %q", got)
	}
	// Constant series renders the lowest block everywhere.
	if got := Sparkline([]float64{5, 5, 5}, 10); got != "▁▁▁" {
		t.Errorf("constant = %q", got)
	}
	// NaN becomes a space.
	if got := Sparkline([]float64{math.NaN(), 1, 2}, 10); []rune(got)[0] != ' ' {
		t.Errorf("nan = %q", got)
	}
	// Downsampling caps the width.
	long := make([]float64, 500)
	for i := range long {
		long[i] = float64(i % 10)
	}
	if got := Sparkline(long, 40); len([]rune(got)) != 40 {
		t.Errorf("downsampled width = %d", len([]rune(got)))
	}
	// All-NaN renders spaces.
	if got := Sparkline([]float64{math.NaN(), math.NaN()}, 10); got != "  " {
		t.Errorf("all-nan = %q", got)
	}
}
