// Package kg implements the knowledge-graph substrate the paper's P2
// (Grounding) requires: an in-memory triple store with pattern
// queries and RDFS-lite forward-chaining inference (subClassOf,
// subPropertyOf, domain, range).
//
// Every triple carries a Source so answers grounded in the KG can
// cite where a fact came from (P4 Soundness by provenance); inferred
// triples are stamped with the rule that produced them.
package kg

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Well-known predicates (short-form CURIEs; the store does not expand
// namespaces).
const (
	PredType          = "rdf:type"
	PredSubClassOf    = "rdfs:subClassOf"
	PredSubPropertyOf = "rdfs:subPropertyOf"
	PredDomain        = "rdfs:domain"
	PredRange         = "rdfs:range"
	PredLabel         = "rdfs:label"
	PredComment       = "rdfs:comment"
	PredSynonym       = "skos:altLabel"
)

// Triple is one (subject, predicate, object) fact with provenance.
type Triple struct {
	S, P, O string
	// Source identifies where the fact came from: a dataset name, a
	// document, or "inferred:<rule>" for derived triples.
	Source string
}

// Store is a triple store with SPO/POS/OSP hash indexes. Safe for
// concurrent use.
type Store struct {
	mu      sync.RWMutex
	triples []Triple
	// present dedupes on (s,p,o); the first Source wins.
	present map[[3]string]struct{}
	bySP    map[[2]string][]int
	byP     map[string][]int
	byPO    map[[2]string][]int
	byS     map[string][]int
	byO     map[string][]int
}

// NewStore creates an empty store.
func NewStore() *Store {
	return &Store{
		present: make(map[[3]string]struct{}),
		bySP:    make(map[[2]string][]int),
		byP:     make(map[string][]int),
		byPO:    make(map[[2]string][]int),
		byS:     make(map[string][]int),
		byO:     make(map[string][]int),
	}
}

// Add inserts a triple; duplicates (same S,P,O) are ignored. Returns
// true when the triple was new.
func (st *Store) Add(t Triple) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.addLocked(t)
}

func (st *Store) addLocked(t Triple) bool {
	key := [3]string{t.S, t.P, t.O}
	if _, dup := st.present[key]; dup {
		return false
	}
	st.present[key] = struct{}{}
	i := len(st.triples)
	st.triples = append(st.triples, t)
	st.bySP[[2]string{t.S, t.P}] = append(st.bySP[[2]string{t.S, t.P}], i)
	st.byP[t.P] = append(st.byP[t.P], i)
	st.byPO[[2]string{t.P, t.O}] = append(st.byPO[[2]string{t.P, t.O}], i)
	st.byS[t.S] = append(st.byS[t.S], i)
	st.byO[t.O] = append(st.byO[t.O], i)
	return true
}

// Len returns the number of stored triples (including inferred ones).
func (st *Store) Len() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return len(st.triples)
}

// Match returns all triples matching the pattern; empty strings are
// wildcards.
func (st *Store) Match(s, p, o string) []Triple {
	st.mu.RLock()
	defer st.mu.RUnlock()
	var idxs []int
	switch {
	case s != "" && p != "":
		idxs = st.bySP[[2]string{s, p}]
	case p != "" && o != "":
		idxs = st.byPO[[2]string{p, o}]
	case s != "":
		idxs = st.byS[s]
	case o != "":
		idxs = st.byO[o]
	case p != "":
		idxs = st.byP[p]
	default:
		out := make([]Triple, len(st.triples))
		copy(out, st.triples)
		return out
	}
	var out []Triple
	for _, i := range idxs {
		t := st.triples[i]
		if (s == "" || t.S == s) && (p == "" || t.P == p) && (o == "" || t.O == o) {
			out = append(out, t)
		}
	}
	return out
}

// Infer materializes the RDFS-lite closure:
//
//	(C subClassOf D), (D subClassOf E)   ⇒ (C subClassOf E)
//	(x type C), (C subClassOf D)         ⇒ (x type D)
//	(p subPropertyOf q), (x p y)         ⇒ (x q y)
//	(p domain C), (x p y)                ⇒ (x type C)
//	(p range C), (x p y)                 ⇒ (y type C)
//
// It iterates to fixpoint and returns the number of new triples.
func (st *Store) Infer() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	added := 0
	for {
		var fresh []Triple
		// Rule application reads the current snapshot.
		snapshot := st.triples
		sub := map[string][]string{}  // class -> superclasses
		subP := map[string][]string{} // prop -> superprops
		dom := map[string][]string{}  // prop -> domain classes
		rng := map[string][]string{}  // prop -> range classes
		for _, t := range snapshot {
			switch t.P {
			case PredSubClassOf:
				sub[t.S] = append(sub[t.S], t.O)
			case PredSubPropertyOf:
				subP[t.S] = append(subP[t.S], t.O)
			case PredDomain:
				dom[t.S] = append(dom[t.S], t.O)
			case PredRange:
				rng[t.S] = append(rng[t.S], t.O)
			}
		}
		for _, t := range snapshot {
			switch t.P {
			case PredSubClassOf:
				for _, sup := range sub[t.O] {
					fresh = append(fresh, Triple{S: t.S, P: PredSubClassOf, O: sup, Source: "inferred:subClassOf-transitive"})
				}
			case PredType:
				for _, sup := range sub[t.O] {
					fresh = append(fresh, Triple{S: t.S, P: PredType, O: sup, Source: "inferred:type-subClassOf"})
				}
			}
			for _, q := range subP[t.P] {
				fresh = append(fresh, Triple{S: t.S, P: q, O: t.O, Source: "inferred:subPropertyOf"})
			}
			for _, c := range dom[t.P] {
				fresh = append(fresh, Triple{S: t.S, P: PredType, O: c, Source: "inferred:domain"})
			}
			for _, c := range rng[t.P] {
				fresh = append(fresh, Triple{S: t.O, P: PredType, O: c, Source: "inferred:range"})
			}
		}
		n := 0
		for _, t := range fresh {
			if st.addLocked(t) {
				n++
			}
		}
		added += n
		if n == 0 {
			return added
		}
	}
}

// EntitiesByLabel returns entities whose rdfs:label or skos:altLabel
// equals the text (case-insensitive). Used by entity linking.
func (st *Store) EntitiesByLabel(label string) []string {
	st.mu.RLock()
	defer st.mu.RUnlock()
	want := strings.ToLower(label)
	set := map[string]struct{}{}
	for _, t := range st.triples {
		if (t.P == PredLabel || t.P == PredSynonym) && strings.ToLower(t.O) == want {
			set[t.S] = struct{}{}
		}
	}
	out := make([]string, 0, len(set))
	for e := range set {
		out = append(out, e)
	}
	sort.Strings(out)
	return out
}

// Describe returns a human-readable summary of an entity: its label,
// comment, types, and outgoing facts — the "concise summary of the
// dataset coupled with the source" behaviour in Figure 1.
func (st *Store) Describe(entity string) string {
	var sb strings.Builder
	labels := st.Match(entity, PredLabel, "")
	if len(labels) > 0 {
		sb.WriteString(labels[0].O)
	} else {
		sb.WriteString(entity)
	}
	for _, t := range st.Match(entity, PredComment, "") {
		sb.WriteString(": " + t.O)
	}
	types := st.Match(entity, PredType, "")
	if len(types) > 0 {
		names := make([]string, len(types))
		for i, t := range types {
			names[i] = t.O
		}
		sort.Strings(names)
		sb.WriteString(fmt.Sprintf(" (a %s)", strings.Join(names, ", ")))
	}
	return sb.String()
}

// Sources returns the distinct provenance sources supporting facts
// about the entity (as subject).
func (st *Store) Sources(entity string) []string {
	set := map[string]struct{}{}
	for _, t := range st.Match(entity, "", "") {
		if t.Source != "" {
			set[t.Source] = struct{}{}
		}
	}
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}
