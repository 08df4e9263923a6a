// Package bias implements the bias-identification machinery the
// paper's Grounding section calls for: since conversation logs feed
// back into training and retrieval, the system must "counteract the
// effect of any bias present in these logs" using "approaches such as
// CADS (Corpus Assisted Discourse Analysis) and sentiment analysis".
//
// Two tools are provided:
//
//   - a sentiment lexicon giving each descriptor term its polarity; and
//   - a corpus-assisted association analysis: for each descriptor
//     term, the informative-Dirichlet-prior log-odds ratio (Monroe et
//     al.) of occurring within a window of a target group term versus
//     the rest of the corpus, with a z-score for significance.
//
// A Finding is a significant association between a group term and a
// negatively connoted descriptor — the "connoted or discriminatory
// language" the system should surface for human review (the paper
// stresses human involvement; this package flags, it does not
// censor).
package bias

import (
	"fmt"
	"math"
	"sort"

	"github.com/reliable-cda/cda/internal/textindex"
)

// Lexicon holds positive and negative sentiment word sets.
type Lexicon struct {
	Pos map[string]bool
	Neg map[string]bool
}

// lexicon scores descriptor polarity: a compact general-purpose
// sentiment lexicon. Read-only after init.
var lexicon = newLexicon()

func newLexicon() *Lexicon {
	pos := []string{
		"good", "great", "excellent", "reliable", "skilled", "strong",
		"competent", "productive", "honest", "efficient", "qualified",
		"successful", "innovative", "diligent", "capable", "trusted",
		"positive", "helpful", "accurate", "fair",
	}
	neg := []string{
		"bad", "poor", "lazy", "unreliable", "weak", "incompetent",
		"unproductive", "dishonest", "inefficient", "unqualified",
		"criminal", "dangerous", "aggressive", "inferior", "failed",
		"negative", "useless", "inaccurate", "unfair", "hostile",
	}
	lex := &Lexicon{Pos: map[string]bool{}, Neg: map[string]bool{}}
	for _, w := range pos {
		lex.Pos[w] = true
	}
	for _, w := range neg {
		lex.Neg[w] = true
	}
	return lex
}

// TermPolarity returns +1/-1/0 for a single lexicon word.
func (l *Lexicon) TermPolarity(term string) float64 {
	switch {
	case l.Pos[term]:
		return 1
	case l.Neg[term]:
		return -1
	default:
		return 0
	}
}

// Association is one (group term, descriptor) co-occurrence measure.
type Association struct {
	Group string
	Term  string
	// LogOdds is the informative-Dirichlet log-odds ratio of the term
	// in group-term contexts vs the background.
	LogOdds float64
	// Z is LogOdds divided by its estimated standard deviation;
	// |Z| > ~1.96 marks a significant association.
	Z float64
	// CountNear is the term's frequency within the window of the
	// group term.
	CountNear int
	// Sentiment is the descriptor's lexicon polarity.
	Sentiment float64
}

// The corpus analysis: a descriptor is "near" a group term within
// window tokens of it, counts only when seen at least minCount times
// there, and gets a Dirichlet prior of alpha pseudo-counts per unit of
// its overall frequency.
const (
	window   = 5
	minCount = 2
	alpha    = 0.01
)

// Associations computes, for every descriptor co-occurring with the
// group term, its log-odds ratio vs the background corpus, sorted by
// descending Z.
func Associations(corpus []string, group string) []Association {
	near := map[string]int{} // term counts within the window of group
	far := map[string]int{}  // term counts elsewhere
	var nearTotal, farTotal int
	for _, doc := range corpus {
		toks := textindex.Tokenize(doc)
		// Mark positions near the group term.
		isNear := make([]bool, len(toks))
		for i, tok := range toks {
			if tok != group {
				continue
			}
			for j := max(0, i-window); j <= min(len(toks)-1, i+window); j++ {
				isNear[j] = true
			}
		}
		for i, tok := range toks {
			if tok == group || textindex.Stopwords[tok] {
				continue
			}
			if isNear[i] {
				near[tok]++
				nearTotal++
			} else {
				far[tok]++
				farTotal++
			}
		}
	}
	if nearTotal == 0 {
		return nil
	}
	var out []Association
	for term, cNear := range near {
		if cNear < minCount {
			continue
		}
		cFar := far[term]
		// Informative Dirichlet prior proportional to overall term
		// frequency.
		prior := alpha * float64(cNear+cFar+1)
		lo := math.Log((float64(cNear)+prior)/(float64(nearTotal)+prior*2-float64(cNear)-prior)) -
			math.Log((float64(cFar)+prior)/(float64(farTotal)+prior*2-float64(cFar)-prior))
		variance := 1/(float64(cNear)+prior) + 1/(float64(cFar)+prior)
		z := lo / math.Sqrt(variance)
		out = append(out, Association{
			Group: group, Term: term, LogOdds: lo, Z: z,
			CountNear: cNear, Sentiment: lexicon.TermPolarity(term),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Z != out[j].Z {
			return out[i].Z > out[j].Z
		}
		return out[i].Term < out[j].Term
	})
	return out
}

// Finding is a flagged biased association.
type Finding struct {
	Association
	Reason string
}

// SignificanceZ is the threshold above which an association is
// treated as statistically meaningful.
const SignificanceZ = 1.96

// Findings flags significant associations between any group term and
// a negatively connoted descriptor, across the corpus.
func Findings(corpus []string, groupTerms []string) []Finding {
	var out []Finding
	for _, g := range groupTerms {
		for _, assoc := range Associations(corpus, g) {
			if assoc.Z >= SignificanceZ && assoc.Sentiment < 0 {
				out = append(out, Finding{
					Association: assoc,
					Reason: fmt.Sprintf(
						"negative descriptor %q significantly associated with group term %q (z=%.2f)",
						assoc.Term, g, assoc.Z),
				})
			}
		}
	}
	return out
}
