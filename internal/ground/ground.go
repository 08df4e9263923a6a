// Package ground implements the paper's P2 (Grounding): connecting
// natural-language requests to domain vocabulary, knowledge-graph
// entities, and schema elements, and detecting when a request is
// ambiguous enough that the system should ask for clarification
// rather than guess (the Figure 1 "I am assuming you are interested
// in..." behaviour).
package ground

import (
	"sort"
	"strings"
	"sync"

	"github.com/reliable-cda/cda/internal/kg"
	"github.com/reliable-cda/cda/internal/storage"
	"github.com/reliable-cda/cda/internal/textindex"
)

// Vocabulary maps domain surface forms to canonical concepts. It is
// the "domain-specific vocabulary" box of the Figure 1 architecture.
type Vocabulary struct {
	// synonyms maps a lower-cased surface phrase to canonical phrases
	// (one surface form may evoke several concepts — that is exactly
	// the ambiguity the system must detect).
	synonyms map[string][]string
}

// NewVocabulary creates an empty vocabulary.
func NewVocabulary() *Vocabulary {
	return &Vocabulary{synonyms: make(map[string][]string)}
}

// AddSynonym registers surface → canonical. Multiple canonicals per
// surface are allowed and preserved in insertion order.
func (v *Vocabulary) AddSynonym(surface, canonical string) {
	key := strings.ToLower(strings.TrimSpace(surface))
	for _, c := range v.synonyms[key] {
		if strings.EqualFold(c, canonical) {
			return
		}
	}
	v.synonyms[key] = append(v.synonyms[key], canonical)
}

// Canonicals returns the canonical phrases for a surface form.
func (v *Vocabulary) Canonicals(surface string) []string {
	return v.synonyms[strings.ToLower(strings.TrimSpace(surface))]
}

// Expand rewrites a question by appending canonical phrases for every
// matched surface form (longest-match over 1..3-gram windows). The
// original text is preserved so nothing is lost.
func (v *Vocabulary) Expand(question string) string {
	toks := textindex.Tokenize(question)
	var additions []string
	seen := map[string]bool{}
	for n := 3; n >= 1; n-- {
		for i := 0; i+n <= len(toks); i++ {
			phrase := strings.Join(toks[i:i+n], " ")
			for _, c := range v.synonyms[phrase] {
				if !seen[c] {
					seen[c] = true
					additions = append(additions, c)
				}
			}
		}
	}
	if len(additions) == 0 {
		return question
	}
	return question + " (" + strings.Join(additions, "; ") + ")"
}

// EntityLink is one grounded mention → KG entity match.
type EntityLink struct {
	Mention string
	Entity  string
	Score   float64
}

// SchemaLink is one grounded mention → schema element match.
type SchemaLink struct {
	Mention string
	Table   string
	Column  string // empty when the mention matched the table itself
	IsValue bool   // the mention matched a cell value of the column
	Score   float64
}

// Grounder connects questions to a knowledge graph and a database
// schema.
type Grounder struct {
	KG    *kg.Store
	DB    *storage.Database
	Vocab *Vocabulary
	// MaxValueScan caps how many distinct values per column are
	// considered for value linking (keeps grounding interactive, P1).
	MaxValueScan int

	// valueIndex maps lower(value) -> links. It is built by the first
	// LinkSchema, under valueOnce: a fresh server's first asks arrive
	// concurrently.
	valueOnce  sync.Once
	valueIndex map[string][]SchemaLink
}

// NewGrounder wires the grounding sources together.
func NewGrounder(store *kg.Store, db *storage.Database, vocab *Vocabulary) *Grounder {
	if vocab == nil {
		vocab = NewVocabulary()
	}
	return &Grounder{KG: store, DB: db, Vocab: vocab, MaxValueScan: 10000}
}

// LinkEntities finds KG entities mentioned in the question by matching
// 1..4-gram windows against entity labels and synonyms. Longer
// matches score higher; overlapping shorter matches inside an accepted
// longer span are suppressed.
func (g *Grounder) LinkEntities(question string) []EntityLink {
	if g.KG == nil {
		return nil
	}
	toks := textindex.Tokenize(question)
	covered := make([]bool, len(toks))
	var out []EntityLink
	for n := 4; n >= 1; n-- {
		for i := 0; i+n <= len(toks); i++ {
			if anyCovered(covered, i, n) {
				continue
			}
			phrase := strings.Join(toks[i:i+n], " ")
			ents := g.KG.EntitiesByLabel(phrase)
			// Vocabulary indirection: "working force" -> "labour market"
			// -> entity labeled "labour market".
			if len(ents) == 0 {
				for _, c := range g.Vocab.Canonicals(phrase) {
					ents = append(ents, g.KG.EntitiesByLabel(c)...)
				}
			}
			if len(ents) == 0 {
				continue
			}
			for k := i; k < i+n; k++ {
				covered[k] = true
			}
			score := float64(n) / 4.0
			for _, e := range ents {
				out = append(out, EntityLink{Mention: phrase, Entity: e, Score: score})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Entity < out[j].Entity
	})
	return out
}

func anyCovered(covered []bool, i, n int) bool {
	for k := i; k < i+n; k++ {
		if covered[k] {
			return true
		}
	}
	return false
}

// LinkSchema matches question tokens against table names, column
// names, column descriptions, and (for string columns) cell values.
func (g *Grounder) LinkSchema(question string) []SchemaLink {
	if g.DB == nil {
		return nil
	}
	g.valueOnce.Do(g.buildValueIndex)
	toks := textindex.Tokenize(question)
	var out []SchemaLink
	addUnique := func(l SchemaLink) {
		for _, e := range out {
			if e.Table == l.Table && e.Column == l.Column && e.Mention == l.Mention && e.IsValue == l.IsValue {
				return
			}
		}
		out = append(out, l)
	}
	for n := 3; n >= 1; n-- {
		for i := 0; i+n <= len(toks); i++ {
			phrase := strings.Join(toks[i:i+n], " ")
			variants := append([]string{phrase}, g.Vocab.Canonicals(phrase)...)
			for _, p := range variants {
				pl := strings.ToLower(p)
				for _, t := range g.DB.Tables() {
					if nameMatches(t.Name, pl) {
						addUnique(SchemaLink{Mention: phrase, Table: t.Name, Score: 1.0})
					}
					for _, col := range t.Schema() {
						if nameMatches(col.Name, pl) {
							addUnique(SchemaLink{Mention: phrase, Table: t.Name, Column: col.Name, Score: 0.9})
						} else if col.Description != "" && strings.Contains(strings.ToLower(col.Description), pl) && len(pl) > 3 {
							addUnique(SchemaLink{Mention: phrase, Table: t.Name, Column: col.Name, Score: 0.5})
						}
					}
				}
				for _, l := range g.valueIndex[pl] {
					l.Mention = phrase
					addUnique(l)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		if out[i].Table != out[j].Table {
			return out[i].Table < out[j].Table
		}
		return out[i].Column < out[j].Column
	})
	return out
}

// nameMatches compares an identifier against a phrase, tolerating
// snake_case vs space separation and simple plural 's'.
func nameMatches(ident, phrase string) bool {
	id := strings.ToLower(strings.ReplaceAll(ident, "_", " "))
	if id == phrase {
		return true
	}
	// singular/plural tolerance both ways
	if strings.TrimSuffix(id, "s") == strings.TrimSuffix(phrase, "s") {
		return true
	}
	return false
}

func (g *Grounder) buildValueIndex() {
	g.valueIndex = make(map[string][]SchemaLink)
	budget := g.MaxValueScan
	for _, t := range g.DB.Tables() {
		for _, col := range t.Schema() {
			if col.Kind != storage.KindString {
				continue
			}
			vals, err := t.DistinctStrings(col.Name)
			if err != nil {
				continue
			}
			for _, v := range vals {
				if budget <= 0 {
					return
				}
				budget--
				key := strings.ToLower(v)
				g.valueIndex[key] = append(g.valueIndex[key],
					SchemaLink{Table: t.Name, Column: col.Name, IsValue: true, Score: 0.8})
			}
		}
	}
}

// Ambiguity describes a request the system should clarify before
// answering (P5 Guidance feeding back into P2 Grounding).
type Ambiguity struct {
	Term    string
	Options []string
	// Kind is "entity" (several KG entities share the label) or
	// "schema" (several tables/columns match the same mention).
	Kind string
}

// DetectAmbiguities reports mentions that ground to more than one
// entity or more than one table.
func (g *Grounder) DetectAmbiguities(question string) []Ambiguity {
	var out []Ambiguity
	byMention := map[string][]string{}
	for _, l := range g.LinkEntities(question) {
		byMention[l.Mention] = appendUnique(byMention[l.Mention], l.Entity)
	}
	mentions := sortedKeys(byMention)
	for _, m := range mentions {
		if ents := byMention[m]; len(ents) > 1 {
			out = append(out, Ambiguity{Term: m, Options: ents, Kind: "entity"})
		}
	}
	byMentionTables := map[string][]string{}
	for _, l := range g.LinkSchema(question) {
		if l.Column == "" {
			byMentionTables[l.Mention] = appendUnique(byMentionTables[l.Mention], l.Table)
		}
	}
	for _, m := range sortedKeys(byMentionTables) {
		if ts := byMentionTables[m]; len(ts) > 1 {
			out = append(out, Ambiguity{Term: m, Options: ts, Kind: "schema"})
		}
	}
	return out
}

func appendUnique(xs []string, x string) []string {
	for _, e := range xs {
		if e == x {
			return xs
		}
	}
	return append(xs, x)
}

func sortedKeys(m map[string][]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Report bundles everything grounding produced for one question; the
// core pipeline attaches it to the answer's provenance.
type Report struct {
	Question    string
	Expanded    string
	Entities    []EntityLink
	Schema      []SchemaLink
	Ambiguities []Ambiguity
}

// Grounded reports whether at least one entity or schema element was
// linked.
func (r *Report) Grounded() bool {
	return len(r.Entities) > 0 || len(r.Schema) > 0
}

// Ground runs the full grounding pass over a question.
func (g *Grounder) Ground(question string) *Report {
	return &Report{
		Question:    question,
		Expanded:    g.Vocab.Expand(question),
		Entities:    g.LinkEntities(question),
		Schema:      g.LinkSchema(question),
		Ambiguities: g.DetectAmbiguities(question),
	}
}
