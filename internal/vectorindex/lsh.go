package vectorindex

import (
	"fmt"
	"math"
	"math/rand"
)

// LSHParams configures a p-stable (E2LSH-style) index for Euclidean
// distance: L hash tables, each concatenating K projections quantized
// with bucket width W.
type LSHParams struct {
	Tables int     // L, number of hash tables
	Hashes int     // K, projections concatenated per table
	Width  float64 // W, quantization bucket width
	Seed   int64
}

type lshTable struct {
	// proj[k] is one random Gaussian direction; offsets[k] its shift.
	proj    []Vector
	offsets []float64
	buckets map[string][]int
}

// LSH is a locality-sensitive hashing index: fast candidate generation
// with NO quality guarantee — the paper's first efficiency regime.
type LSH struct {
	distCounter
	params LSHParams
	data   []Vector
	dim    int
	tables []lshTable
}

// NewLSH builds the index over data (IDs are positions).
func NewLSH(data []Vector, params LSHParams) (*LSH, error) {
	if params.Tables <= 0 || params.Hashes <= 0 || params.Width <= 0 {
		return nil, fmt.Errorf("vectorindex: invalid LSH params %+v", params)
	}
	idx := &LSH{params: params, data: data}
	if len(data) > 0 {
		idx.dim = len(data[0])
	}
	rng := rand.New(rand.NewSource(params.Seed))
	idx.tables = make([]lshTable, params.Tables)
	for t := range idx.tables {
		tab := &idx.tables[t]
		tab.buckets = make(map[string][]int)
		tab.proj = make([]Vector, params.Hashes)
		tab.offsets = make([]float64, params.Hashes)
		for h := 0; h < params.Hashes; h++ {
			dir := make(Vector, idx.dim)
			for d := range dir {
				dir[d] = float32(rng.NormFloat64())
			}
			tab.proj[h] = dir
			tab.offsets[h] = rng.Float64() * params.Width
		}
		for id, v := range data {
			key := tab.key(v, params.Width)
			tab.buckets[key] = append(tab.buckets[key], id)
		}
	}
	return idx, nil
}

func (t *lshTable) key(v Vector, w float64) string {
	buf := make([]byte, 0, len(t.proj)*4)
	for h := range t.proj {
		var dot float64
		p := t.proj[h]
		for d := range v {
			dot += float64(v[d]) * float64(p[d])
		}
		cell := int32(math.Floor((dot + t.offsets[h]) / w))
		buf = append(buf, byte(cell), byte(cell>>8), byte(cell>>16), byte(cell>>24))
	}
	return string(buf)
}

// Len returns the number of indexed vectors.
func (l *LSH) Len() int { return len(l.data) }

// Search collects candidates from all matching buckets and ranks them
// exactly. Returns fewer than k neighbors when the buckets are sparse
// — the unguaranteed-recall behaviour E2 measures.
func (l *LSH) Search(q Vector, k int) ([]Neighbor, error) {
	if len(l.data) == 0 {
		return nil, ErrEmpty
	}
	if len(q) != l.dim {
		return nil, ErrDimension
	}
	if k <= 0 {
		return nil, nil
	}
	seen := make(map[int]struct{})
	heap := newTopK(k)
	var comps int64
	for t := range l.tables {
		tab := &l.tables[t]
		for _, id := range tab.buckets[tab.key(q, l.params.Width)] {
			if _, dup := seen[id]; dup {
				continue
			}
			seen[id] = struct{}{}
			heap.push(Neighbor{ID: id, Dist: SquaredL2(q, l.data[id])})
			comps++
		}
	}
	l.add(comps)
	return heap.sorted(), nil
}
