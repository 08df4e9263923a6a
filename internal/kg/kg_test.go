package kg

import (
	"strings"
	"testing"
	"testing/quick"
)

func buildStore() *Store {
	st := NewStore()
	st.Add(Triple{S: "ex:Barometer", P: PredType, O: "ex:Indicator", Source: "catalog"})
	st.Add(Triple{S: "ex:Indicator", P: PredSubClassOf, O: "ex:Dataset", Source: "ontology"})
	st.Add(Triple{S: "ex:Dataset", P: PredSubClassOf, O: "ex:Resource", Source: "ontology"})
	st.Add(Triple{S: "ex:Barometer", P: PredLabel, O: "Swiss Labour Market Barometer", Source: "catalog"})
	st.Add(Triple{S: "ex:Barometer", P: PredSynonym, O: "workforce barometer", Source: "catalog"})
	st.Add(Triple{S: "ex:Barometer", P: PredComment, O: "monthly leading indicator from 22 cantons", Source: "arbeit.swiss"})
	st.Add(Triple{S: "ex:measures", P: PredDomain, O: "ex:Indicator", Source: "ontology"})
	st.Add(Triple{S: "ex:measures", P: PredRange, O: "ex:Phenomenon", Source: "ontology"})
	st.Add(Triple{S: "ex:Barometer", P: "ex:measures", O: "ex:Employment", Source: "catalog"})
	st.Add(Triple{S: "ex:hasTopic", P: PredSubPropertyOf, O: "ex:about", Source: "ontology"})
	st.Add(Triple{S: "ex:Barometer", P: "ex:hasTopic", O: "ex:LabourMarket", Source: "catalog"})
	return st
}

func TestAddAndDedup(t *testing.T) {
	st := NewStore()
	tr := Triple{S: "a", P: "b", O: "c", Source: "s1"}
	if !st.Add(tr) {
		t.Error("first add must return true")
	}
	if st.Add(Triple{S: "a", P: "b", O: "c", Source: "s2"}) {
		t.Error("duplicate add must return false")
	}
	if st.Len() != 1 {
		t.Errorf("len = %d", st.Len())
	}
}

func TestMatchPatterns(t *testing.T) {
	st := buildStore()
	if got := st.Match("ex:Barometer", PredType, ""); len(got) != 1 || got[0].O != "ex:Indicator" {
		t.Errorf("S+P match = %v", got)
	}
	if got := st.Match("", PredType, "ex:Indicator"); len(got) != 1 {
		t.Errorf("P+O match = %v", got)
	}
	if got := st.Match("ex:Barometer", "", ""); len(got) != 6 {
		t.Errorf("S match = %d triples", len(got))
	}
	if got := st.Match("", "", "ex:Employment"); len(got) != 1 {
		t.Errorf("O match = %v", got)
	}
	if got := st.Match("", PredSubClassOf, ""); len(got) != 2 {
		t.Errorf("P match = %v", got)
	}
	if got := st.Match("", "", ""); len(got) != st.Len() {
		t.Errorf("full scan = %d", len(got))
	}
	if got := st.Match("nope", "", ""); len(got) != 0 {
		t.Errorf("missing subject = %v", got)
	}
}

func TestInferSubclassTransitive(t *testing.T) {
	st := buildStore()
	added := st.Infer()
	if added == 0 {
		t.Fatal("no inference happened")
	}
	// Transitive subclass: Indicator ⊑ Resource.
	if got := st.Match("ex:Indicator", PredSubClassOf, "ex:Resource"); len(got) != 1 {
		t.Error("missing transitive subclass")
	} else if got[0].Source != "inferred:subClassOf-transitive" {
		t.Errorf("source = %q", got[0].Source)
	}
	// Type lifting: Barometer is a Dataset and a Resource.
	if len(st.Match("ex:Barometer", PredType, "ex:Dataset")) != 1 {
		t.Error("missing lifted type Dataset")
	}
	if len(st.Match("ex:Barometer", PredType, "ex:Resource")) != 1 {
		t.Error("missing lifted type Resource")
	}
}

func TestInferDomainRange(t *testing.T) {
	st := buildStore()
	st.Infer()
	// domain: Barometer gains type Indicator (already had); range:
	// Employment gains type Phenomenon.
	if len(st.Match("ex:Employment", PredType, "ex:Phenomenon")) != 1 {
		t.Error("missing range inference")
	}
}

func TestInferSubProperty(t *testing.T) {
	st := buildStore()
	st.Infer()
	if len(st.Match("ex:Barometer", "ex:about", "ex:LabourMarket")) != 1 {
		t.Error("missing subPropertyOf inference")
	}
}

func TestInferIdempotent(t *testing.T) {
	st := buildStore()
	st.Infer()
	if again := st.Infer(); again != 0 {
		t.Errorf("second Infer added %d triples", again)
	}
}

func TestLabelsAndLookup(t *testing.T) {
	st := buildStore()
	ents := st.EntitiesByLabel("WORKFORCE BAROMETER")
	if len(ents) != 1 || ents[0] != "ex:Barometer" {
		t.Errorf("entities = %v", ents)
	}
	if got := st.EntitiesByLabel("unknown thing"); len(got) != 0 {
		t.Errorf("unknown label = %v", got)
	}
}

func TestDescribe(t *testing.T) {
	st := buildStore()
	d := st.Describe("ex:Barometer")
	if d == "" || d == "ex:Barometer" {
		t.Errorf("describe = %q", d)
	}
	for _, want := range []string{"Swiss Labour Market Barometer", "22 cantons", "ex:Indicator"} {
		if !strings.Contains(d, want) {
			t.Errorf("describe %q missing %q", d, want)
		}
	}
	if got := st.Describe("ex:Unknown"); got != "ex:Unknown" {
		t.Errorf("unknown describe = %q", got)
	}
}

func TestSources(t *testing.T) {
	st := buildStore()
	srcs := st.Sources("ex:Barometer")
	want := map[string]bool{"catalog": true, "arbeit.swiss": true}
	if len(srcs) != 2 {
		t.Fatalf("sources = %v", srcs)
	}
	for _, s := range srcs {
		if !want[s] {
			t.Errorf("unexpected source %q", s)
		}
	}
}

// Property: Match(s,p,o) with all constants returns at most one triple
// and is consistent with Add.
func TestMatchConsistencyProperty(t *testing.T) {
	f := func(s, p, o byte) bool {
		st := NewStore()
		tr := Triple{S: string('a' + s%3), P: string('p' + p%3), O: string('x' + o%3)}
		st.Add(tr)
		got := st.Match(tr.S, tr.P, tr.O)
		return len(got) == 1 && got[0].S == tr.S
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: inference never removes triples and is monotone.
func TestInferMonotoneProperty(t *testing.T) {
	st := buildStore()
	before := st.Len()
	st.Infer()
	if st.Len() < before {
		t.Error("inference removed triples")
	}
}
