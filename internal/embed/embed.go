// Package embed implements the paper's "dense representations of the
// different modalities in a unified space, forming a multimodal
// index": a deterministic feature-hashing embedder that maps text,
// table schemas, and table rows into one vector space, plus a dense
// retriever over internal/vectorindex and a hybrid (dense + lexical)
// ranker.
//
// The embedder is a deterministic substitute for a learned encoder
// (see DESIGN.md §2): hashed bag-of-words with sub-word character
// trigrams, L2-normalized. It has the property experiments need —
// texts sharing vocabulary and morphology land close together — while
// remaining seed-free and reproducible.
package embed

import (
	"hash/fnv"
	"math"
	"sort"

	"github.com/reliable-cda/cda/internal/textindex"
	"github.com/reliable-cda/cda/internal/vectorindex"
)

// Embedder hashes token and character-trigram features into a fixed
// dimensionality.
type Embedder struct {
	// Dim is the embedding dimensionality (default 256 when zero).
	Dim int
	// TrigramWeight scales sub-word features relative to word
	// features; sub-words give robustness to morphology ("employment"
	// vs "employees").
	TrigramWeight float64
}

// NewEmbedder returns an embedder with the default configuration.
func NewEmbedder() *Embedder { return &Embedder{Dim: 256, TrigramWeight: 0.35} }

func (e *Embedder) dim() int {
	if e.Dim <= 0 {
		return 256
	}
	return e.Dim
}

func (e *Embedder) trigramWeight() float64 {
	if e.TrigramWeight == 0 {
		return 0.35
	}
	return e.TrigramWeight
}

// EmbedText embeds free text.
func (e *Embedder) EmbedText(text string) vectorindex.Vector {
	v := make([]float64, e.dim())
	toks := textindex.TokenizeContent(text)
	for _, tok := range toks {
		addFeature(v, "w:"+tok, 1)
		for _, tg := range trigrams(tok) {
			addFeature(v, "t:"+tg, e.trigramWeight())
		}
	}
	return normalize(v)
}

func addFeature(v []float64, feature string, weight float64) {
	h := fnv.New64a()
	// cdalint:ignore dropped-error -- hash.Hash.Write is documented to
	// never return an error.
	h.Write([]byte(feature))
	sum := h.Sum64()
	idx := int(sum % uint64(len(v)))
	sign := 1.0
	if (sum>>63)&1 == 1 {
		sign = -1
	}
	v[idx] += sign * weight
}

func trigrams(tok string) []string {
	padded := "^" + tok + "$"
	if len(padded) < 3 {
		return nil
	}
	out := make([]string, 0, len(padded)-2)
	for i := 0; i+3 <= len(padded); i++ {
		out = append(out, padded[i:i+3])
	}
	return out
}

func normalize(v []float64) vectorindex.Vector {
	var norm float64
	for _, x := range v {
		norm += x * x
	}
	out := make(vectorindex.Vector, len(v))
	if norm == 0 {
		return out
	}
	norm = math.Sqrt(norm)
	for i, x := range v {
		out[i] = float32(x / norm)
	}
	return out
}

// Similarity is the cosine similarity of two embeddings (they are
// already unit-norm, so this is a dot product).
func Similarity(a, b vectorindex.Vector) float64 {
	var dot float64
	for i := range a {
		dot += float64(a[i]) * float64(b[i])
	}
	return dot
}

// Item is one indexed object with its external identity.
type Item struct {
	ID   string
	Text string
}

// DenseIndex retrieves items by embedding similarity. It is the
// "multimodal index" entry point for discovery: dataset descriptions,
// schema renderings, and document snippets all share one space.
type DenseIndex struct {
	embedder *Embedder
	items    []Item
	vectors  []vectorindex.Vector
	// Faults, when non-nil, injects deterministic chaos faults into
	// TrySearch (see internal/faults). Set once at wiring time,
	// before concurrent use.
	Faults FaultHook
}

// FaultHook is the chaos-injection seam (see internal/faults): when
// non-nil it is consulted by TrySearch and may return an injected
// transient error or add latency. Production deployments leave it
// nil.
type FaultHook interface {
	Inject(op string) error
}

// NewDenseIndex creates an empty index over the given embedder
// (nil = default embedder).
func NewDenseIndex(e *Embedder) *DenseIndex {
	if e == nil {
		e = NewEmbedder()
	}
	return &DenseIndex{embedder: e}
}

// Add embeds and indexes one item.
func (ix *DenseIndex) Add(item Item) {
	ix.items = append(ix.items, item)
	ix.vectors = append(ix.vectors, ix.embedder.EmbedText(item.Text))
}

// Len returns the number of indexed items.
func (ix *DenseIndex) Len() int { return len(ix.items) }

// Hit is a scored retrieval result.
type Hit struct {
	ID    string
	Score float64
}

// Search returns the k most similar items (cosine), ties broken by ID.
func (ix *DenseIndex) Search(query string, k int) []Hit {
	if len(ix.items) == 0 || k <= 0 {
		return nil
	}
	qv := ix.embedder.EmbedText(query)
	hits := make([]Hit, len(ix.items))
	for i, item := range ix.items {
		hits[i] = Hit{ID: item.ID, Score: Similarity(qv, ix.vectors[i])}
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
func (ix *DenseIndex) TrySearch(query string, k int) ([]Hit, error) {
	if ix.Faults != nil {
		if err := ix.Faults.Inject("embed.search"); err != nil {
			return nil, err
		}
	}
	return ix.Search(query, k), nil
}

// Hybrid fuses dense and lexical rankings by reciprocal-rank fusion,
// the standard way to combine a BM25 list with an embedding list
// without score calibration. k hits are returned.
func Hybrid(dense []Hit, lexical []textindex.Hit, k int) []Hit {
	const rrfK = 60.0
	scores := map[string]float64{}
	for rank, h := range dense {
		scores[h.ID] += 1 / (rrfK + float64(rank+1))
	}
	for rank, h := range lexical {
		scores[h.ID] += 1 / (rrfK + float64(rank+1))
	}
	out := make([]Hit, 0, len(scores))
	for id, s := range scores {
		out = append(out, Hit{ID: id, Score: s})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].ID < out[j].ID
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}
