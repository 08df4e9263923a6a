package provenance

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

// buildChain creates source <- query <- computation <- answer.
func buildChain(t *testing.T) (*Graph, map[string]string) {
	t.Helper()
	g := NewGraph()
	ids := map[string]string{}
	ids["src"] = g.AddNode(Node{Kind: KindSource, Label: "barometer.csv", Meta: map[string]string{"uri": "https://example.org/barometer"}})
	ids["q"] = g.AddNode(Node{Kind: KindQuery, Label: "select", Meta: map[string]string{"query": "SELECT value FROM barometer"}})
	ids["comp"] = g.AddNode(Node{Kind: KindComputation, Label: "decompose", Meta: map[string]string{"code": "timeseries.Decompose(xs, 6)"}})
	ids["ans"] = g.AddNode(Node{Kind: KindAnswer, Label: "seasonality period 6"})
	mustEdge(t, g, ids["q"], ids["src"])
	mustEdge(t, g, ids["comp"], ids["q"])
	mustEdge(t, g, ids["ans"], ids["comp"])
	return g, ids
}

func mustEdge(t *testing.T, g *Graph, result, origin string) {
	t.Helper()
	if err := g.DerivedFrom(result, origin); err != nil {
		t.Fatalf("edge %s<-%s: %v", result, origin, err)
	}
}

func TestAddNodeGeneratesIDs(t *testing.T) {
	g := NewGraph()
	a := g.AddNode(Node{Kind: KindSource, Label: "x"})
	b := g.AddNode(Node{Kind: KindSource, Label: "y"})
	if a == b || a == "" {
		t.Errorf("ids = %q %q", a, b)
	}
	n, ok := g.Node(a)
	if !ok || n.Label != "x" {
		t.Errorf("node = %v %v", n, ok)
	}
	if _, ok := g.Node("missing"); ok {
		t.Error("missing node found")
	}
}

func TestAddNodeCopiesMeta(t *testing.T) {
	g := NewGraph()
	meta := map[string]string{"k": "v"}
	id := g.AddNode(Node{ID: "n", Kind: KindSource, Meta: meta})
	meta["k"] = "mutated"
	n, _ := g.Node(id)
	if n.Meta["k"] != "v" {
		t.Error("meta not copied")
	}
}

func TestWhereFrom(t *testing.T) {
	g, ids := buildChain(t)
	anc, err := g.WhereFrom(ids["ans"])
	if err != nil {
		t.Fatal(err)
	}
	if len(anc) != 3 {
		t.Fatalf("ancestors = %v", anc)
	}
	srcs, err := g.SourcesOf(ids["ans"])
	if err != nil || len(srcs) != 1 || srcs[0].Label != "barometer.csv" {
		t.Errorf("sources = %v, %v", srcs, err)
	}
}

func TestWhereTo(t *testing.T) {
	g, ids := buildChain(t)
	desc, err := g.WhereTo(ids["src"])
	if err != nil {
		t.Fatal(err)
	}
	if len(desc) != 3 {
		t.Errorf("descendants = %v", desc)
	}
	leafDesc, _ := g.WhereTo(ids["ans"])
	if len(leafDesc) != 0 {
		t.Errorf("answer descendants = %v", leafDesc)
	}
}

func TestEdgeValidation(t *testing.T) {
	g, ids := buildChain(t)
	if err := g.DerivedFrom("nope", ids["src"]); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("unknown result: %v", err)
	}
	if err := g.DerivedFrom(ids["ans"], "nope"); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("unknown origin: %v", err)
	}
	if err := g.DerivedFrom(ids["ans"], ids["ans"]); !errors.Is(err, ErrCycle) {
		t.Errorf("self loop: %v", err)
	}
	// src derived-from ans would close a cycle.
	if err := g.DerivedFrom(ids["src"], ids["ans"]); !errors.Is(err, ErrCycle) {
		t.Errorf("cycle: %v", err)
	}
	// Idempotent re-add.
	if err := g.DerivedFrom(ids["ans"], ids["comp"]); err != nil {
		t.Errorf("idempotent edge: %v", err)
	}
}

func TestLosslessness(t *testing.T) {
	g, _ := buildChain(t)
	rep := g.CheckLosslessness()
	if !rep.Lossless || len(rep.Orphans) != 0 {
		t.Errorf("report = %+v", rep)
	}
	orphan := g.AddNode(Node{Kind: KindClaim, Label: "unsupported claim"})
	rep = g.CheckLosslessness()
	if rep.Lossless || len(rep.Orphans) != 1 || rep.Orphans[0] != orphan {
		t.Errorf("report = %+v", rep)
	}
}

func TestInvertibility(t *testing.T) {
	g, _ := buildChain(t)
	rep := g.CheckInvertibility()
	if !rep.Invertible {
		t.Errorf("report = %+v", rep)
	}
	g.AddNode(Node{ID: "opaque", Kind: KindComputation, Label: "mystery"})
	rep = g.CheckInvertibility()
	if rep.Invertible || len(rep.Opaque) != 1 || rep.Opaque[0] != "opaque" {
		t.Errorf("report = %+v", rep)
	}
}

func TestSummary(t *testing.T) {
	g, ids := buildChain(t)
	s := g.Summary(ids["ans"])
	for _, want := range []string{"seasonality period 6", "SELECT value FROM barometer", "barometer.csv", "https://example.org/barometer"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
	if g.Summary("missing") != "" {
		t.Error("missing node summary should be empty")
	}
}

func TestDOT(t *testing.T) {
	g, _ := buildChain(t)
	dot := g.DOT()
	if !strings.HasPrefix(dot, "digraph provenance {") {
		t.Error("bad DOT header")
	}
	if !strings.Contains(dot, "cylinder") || !strings.Contains(dot, "->") {
		t.Errorf("DOT = %s", dot)
	}
}

func TestKindString(t *testing.T) {
	if KindSource.String() != "source" || KindAnswer.String() != "answer" || Kind(99).String() == "" {
		t.Error("kind strings wrong")
	}
}

// Property: a randomly built layered DAG never reports cycles, and
// WhereFrom of a layer-2 node only contains layer-0/1 nodes.
func TestLayeredDAGProperty(t *testing.T) {
	f := func(width uint8) bool {
		w := int(width%5) + 1
		g := NewGraph()
		var l0, l1, l2 []string
		for i := 0; i < w; i++ {
			l0 = append(l0, g.AddNode(Node{Kind: KindSource, Label: "s"}))
			l1 = append(l1, g.AddNode(Node{Kind: KindComputation, Label: "c", Meta: map[string]string{"code": "x"}}))
			l2 = append(l2, g.AddNode(Node{Kind: KindAnswer, Label: "a"}))
		}
		for i := 0; i < w; i++ {
			if g.DerivedFrom(l1[i], l0[i]) != nil {
				return false
			}
			if g.DerivedFrom(l2[i], l1[(i+1)%w]) != nil {
				return false
			}
		}
		rep := g.CheckLosslessness()
		return rep.Lossless
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestClosureConcurrentWithWrites is the regression test for a race in
// closure(): the adjacency map must be selected
// inside the critical section, never handed across it, so traversals
// racing with writers stay race-detector clean.
func TestClosureConcurrentWithWrites(t *testing.T) {
	g, ids := buildChain(t)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			id := g.AddNode(Node{Kind: KindComputation, Label: "extra"})
			if err := g.DerivedFrom(id, ids["src"]); err != nil {
				t.Errorf("edge %s<-%s: %v", id, ids["src"], err)
				return
			}
		}
	}()
	for i := 0; i < 200; i++ {
		if _, err := g.WhereFrom(ids["ans"]); err != nil {
			t.Fatalf("WhereFrom: %v", err)
		}
		if _, err := g.WhereTo(ids["src"]); err != nil {
			t.Fatalf("WhereTo: %v", err)
		}
	}
	<-done
	from, err := g.WhereFrom(ids["ans"])
	if err != nil || len(from) != 3 {
		t.Fatalf("WhereFrom after writers = %d nodes, err %v; want the 3-node chain", len(from), err)
	}
}
