// Package textindex implements lexical document retrieval for the CDA
// computational infrastructure: a tokenizer, an inverted index with
// per-term postings, and BM25 ranking. The catalog layer uses it to
// find datasets by description, and the grounding layer uses its
// tokenizer for vocabulary matching.
package textindex

import (
	"math"
	"sort"
	"strings"
	"sync"
	"unicode"
)

// Tokenize lower-cases and splits text into alphanumeric word tokens.
// Punctuation separates tokens; digits stay inside tokens ("q3" is one
// token).
func Tokenize(text string) []string {
	var out []string
	var sb strings.Builder
	flush := func() {
		if sb.Len() > 0 {
			out = append(out, sb.String())
			sb.Reset()
		}
	}
	for _, r := range strings.ToLower(text) {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			sb.WriteRune(r)
		} else {
			flush()
		}
	}
	flush()
	return out
}

// Stopwords used during indexing (kept deliberately small; domain
// terms must never be dropped).
var Stopwords = map[string]bool{
	"a": true, "an": true, "and": true, "are": true, "as": true,
	"at": true, "be": true, "by": true, "for": true, "from": true,
	"in": true, "is": true, "it": true, "of": true, "on": true,
	"or": true, "that": true, "the": true, "to": true, "with": true,
	"me": true, "please": true, "give": true, "i": true, "am": true,
	"what": true, "which": true, "about": true, "can": true, "you": true,
	"such": true, "etc": true,
}

// TokenizeContent tokenizes and removes stopwords.
func TokenizeContent(text string) []string {
	toks := Tokenize(text)
	out := toks[:0]
	for _, t := range toks {
		if !Stopwords[t] {
			out = append(out, t)
		}
	}
	return out
}

// Document is an indexed text with external identity.
type Document struct {
	ID   string
	Text string
}

// Hit is one ranked retrieval result.
type Hit struct {
	ID    string
	Score float64
}

// BM25 parameters; the standard defaults.
const (
	bm25K1 = 1.2
	bm25B  = 0.75
)

type posting struct {
	doc  int
	freq int
}

// FaultHook is the chaos-injection seam (see internal/faults): when
// non-nil it is consulted by TrySearch and may return an injected
// transient error or add latency. Production deployments leave it
// nil. It must be set before the index serves concurrent searches.
type FaultHook interface {
	Inject(op string) error
}

// Index is a BM25 inverted index. Add documents, then Search. Safe
// for concurrent searches after building; Add must not race Search.
type Index struct {
	mu        sync.RWMutex
	docs      []Document
	docLen    []int
	postings  map[string][]posting
	totalLen  int
	dirtyBM25 bool
	// Faults, when non-nil, injects deterministic chaos faults into
	// TrySearch. Set once at wiring time, before concurrent use.
	Faults FaultHook
}

// NewIndex creates an empty index.
func NewIndex() *Index {
	return &Index{postings: map[string][]posting{}}
}

// Add indexes one document. Duplicate IDs are allowed and are treated
// as distinct documents (caller deduplicates if needed).
func (ix *Index) Add(doc Document) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	toks := TokenizeContent(doc.Text)
	id := len(ix.docs)
	ix.docs = append(ix.docs, doc)
	ix.docLen = append(ix.docLen, len(toks))
	ix.totalLen += len(toks)
	freqs := make(map[string]int, len(toks))
	for _, t := range toks {
		freqs[t]++
	}
	for t, f := range freqs {
		ix.postings[t] = append(ix.postings[t], posting{doc: id, freq: f})
	}
}

// Len returns the number of indexed documents.
func (ix *Index) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.docs)
}

// Search ranks documents against the query by BM25 and returns the
// top k hits (fewer if fewer match). Scores are strictly positive;
// documents sharing no query term are omitted.
func (ix *Index) Search(query string, k int) []Hit {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if len(ix.docs) == 0 || k <= 0 {
		return nil
	}
	qToks := TokenizeContent(query)
	if len(qToks) == 0 {
		return nil
	}
	n := float64(len(ix.docs))
	avgLen := float64(ix.totalLen) / n
	if avgLen == 0 {
		avgLen = 1
	}
	// Resolve each distinct query term once, in query order.
	type termScore struct {
		idf   float64
		plist []posting
	}
	var terms []termScore
	seen := make(map[string]bool)
	for _, term := range qToks {
		if seen[term] {
			continue
		}
		seen[term] = true
		plist := ix.postings[term]
		if len(plist) == 0 {
			continue
		}
		terms = append(terms, termScore{
			idf:   math.Log(1 + (n-float64(len(plist))+0.5)/(float64(len(plist))+0.5)),
			plist: plist,
		})
	}
	// Postings are accumulated per document in query-term order, which
	// fixes the floating-point addition order and so the scores.
	scores := make(map[int]float64)
	for _, ts := range terms {
		for _, p := range ts.plist {
			tf := float64(p.freq)
			dl := float64(ix.docLen[p.doc])
			scores[p.doc] += ts.idf * tf * (bm25K1 + 1) / (tf + bm25K1*(1-bm25B+bm25B*dl/avgLen))
		}
	}
	hits := make([]Hit, 0, len(scores))
	for doc, s := range scores {
		hits = append(hits, Hit{ID: ix.docs[doc].ID, Score: s})
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Score != hits[j].Score {
			return hits[i].Score > hits[j].Score
		}
		return hits[i].ID < hits[j].ID
	})
	if len(hits) > k {
		hits = hits[:k]
	}
	return hits
}

// TrySearch is Search through the fault-injection seam: with no hook
// wired (or no fault drawn) it returns exactly Search's hits; under
// an injected fault it returns the injected error. Resilience-aware
// callers (the core degradation ladder) use this entry point.
func (ix *Index) TrySearch(query string, k int) ([]Hit, error) {
	if ix.Faults != nil {
		if err := ix.Faults.Inject("textindex.search"); err != nil {
			return nil, err
		}
	}
	return ix.Search(query, k), nil
}
