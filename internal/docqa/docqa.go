// Package docqa implements the document side of the Figure 1
// "Document & Data Retrieval" box: extractive question answering over
// a text corpus. Instead of generating an answer (which could
// hallucinate), the system retrieves candidate documents with hybrid
// lexical+dense search and returns a verbatim sentence, cited back to
// its document — answers are grounded by construction (P2/P4).
package docqa

import (
	"sort"
	"strings"

	"github.com/reliable-cda/cda/internal/embed"
	"github.com/reliable-cda/cda/internal/textindex"
)

// Document is one indexed text with a citable source.
type Document struct {
	ID     string
	Text   string
	Source string // URI or publication, cited in provenance
}

// Answer is one extractive result.
type Answer struct {
	Sentence string
	DocID    string
	Source   string
	// Score is the sentence's match quality in [0,1] (token-overlap
	// F1 against the question, blended with dense similarity).
	Score float64
	// Margin is the gap to the runner-up sentence, a confidence
	// signal: ambiguous corpora produce small margins.
	Margin float64
}

// MinScore is the minimum blended sentence score required to answer;
// below it the store refuses rather than returning a barely-related
// sentence (P4: refrain when certainty is insufficient).
const MinScore = 0.08

// Store indexes documents for extractive QA.
type Store struct {
	docs  []Document
	byID  map[string]int
	lex   *textindex.Index
	dense *embed.DenseIndex
}

// NewStore creates an empty store.
func NewStore() *Store {
	return &Store{
		byID:  map[string]int{},
		lex:   textindex.NewIndex(),
		dense: embed.NewDenseIndex(),
	}
}

// Add indexes one document (replacing any previous one with the same
// ID is not supported; IDs should be unique).
func (s *Store) Add(d Document) {
	s.byID[d.ID] = len(s.docs)
	s.docs = append(s.docs, d)
	s.lex.Add(textindex.Document{ID: d.ID, Text: d.Text})
	s.dense.Add(embed.Item{ID: d.ID, Text: d.Text})
}

// Len returns the number of indexed documents.
func (s *Store) Len() int { return len(s.docs) }

// SplitSentences performs rule-based sentence segmentation on '.',
// '!', '?' boundaries, keeping abbreviation-free simplicity.
func SplitSentences(text string) []string {
	var out []string
	var sb strings.Builder
	for _, r := range text {
		sb.WriteRune(r)
		if r == '.' || r == '!' || r == '?' {
			if s := strings.TrimSpace(sb.String()); s != "" {
				out = append(out, s)
			}
			sb.Reset()
		}
	}
	if s := strings.TrimSpace(sb.String()); s != "" {
		out = append(out, s)
	}
	return out
}

// overlapF1 scores a sentence against the question by content-token
// F1.
func overlapF1(question, sentence string) float64 {
	q := map[string]bool{}
	for _, t := range textindex.TokenizeContent(question) {
		q[t] = true
	}
	if len(q) == 0 {
		return 0
	}
	sToks := textindex.TokenizeContent(sentence)
	if len(sToks) == 0 {
		return 0
	}
	hit := 0
	seen := map[string]bool{}
	for _, t := range sToks {
		if q[t] && !seen[t] {
			hit++
			seen[t] = true
		}
	}
	if hit == 0 {
		return 0
	}
	precision := float64(hit) / float64(len(sToks))
	recall := float64(hit) / float64(len(q))
	return 2 * precision * recall / (precision + recall)
}

// Ask retrieves the top documents (hybrid) and extracts the best
// sentence. Returns nil when nothing scores above zero — the store
// refuses to answer rather than guessing.
func (s *Store) Ask(question string) *Answer {
	if len(s.docs) == 0 {
		return nil
	}
	denseHits := s.dense.Search(question, 5)
	lexHits := s.lex.Search(question, 5)
	fused := embed.Hybrid(denseHits, lexHits, 5)

	type cand struct {
		sentence string
		doc      int
		score    float64
	}
	var cands []cand
	qv := embed.EmbedText(question)
	for _, h := range fused {
		di, ok := s.byID[h.ID]
		if !ok {
			continue
		}
		for _, sent := range SplitSentences(s.docs[di].Text) {
			f1 := overlapF1(question, sent)
			sim := embed.Similarity(qv, embed.EmbedText(sent))
			score := 0.7*f1 + 0.3*sim
			if score >= MinScore {
				cands = append(cands, cand{sentence: sent, doc: di, score: score})
			}
		}
	}
	if len(cands) == 0 {
		return nil
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].score != cands[j].score {
			return cands[i].score > cands[j].score
		}
		return cands[i].sentence < cands[j].sentence
	})
	best := cands[0]
	margin := best.score
	if len(cands) > 1 {
		margin = best.score - cands[1].score
	}
	return &Answer{
		Sentence: best.sentence,
		DocID:    s.docs[best.doc].ID,
		Source:   s.docs[best.doc].Source,
		Score:    clamp01(best.score),
		Margin:   clamp01(margin),
	}
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
