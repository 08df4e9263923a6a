// Package vectorindex implements high-dimensional similarity search in
// the three regimes the paper's P1 (Efficiency) challenge contrasts:
//
//   - Exact scan: guaranteed correct, slow (the "quality guarantees but
//     relatively slow" regime).
//   - LSH and IVF: fast approximate search with no quality guarantee
//     (the "fast but no guarantees" regime).
//   - Progressive search: ProS-style early-terminating scan that stops
//     as soon as the probability that the current top-k is final
//     reaches a user target δ — the paper's envisioned "new generation"
//     combining speed WITH a probabilistic quality guarantee.
//
// All indexes operate on float32 vectors under squared Euclidean
// distance and count distance computations so benchmarks can report
// operation counts alongside wall time.
package vectorindex

import (
	"errors"
	"math"
	"sort"
	"sync/atomic"
)

// Vector is a dense embedding.
type Vector []float32

// ErrDimension is returned when a query's dimensionality does not
// match the indexed data.
var ErrDimension = errors.New("vectorindex: dimension mismatch")

// ErrEmpty is returned when searching an empty index.
var ErrEmpty = errors.New("vectorindex: empty index")

// SquaredL2 returns the squared Euclidean distance between a and b.
// Vectors must have equal length (callers validate).
func SquaredL2(a, b Vector) float64 {
	var sum float64
	for i := range a {
		d := float64(a[i]) - float64(b[i])
		sum += d * d
	}
	return sum
}

// Neighbor is one search hit.
type Neighbor struct {
	ID   int
	Dist float64
}

// Index is the common search interface.
type Index interface {
	// Search returns the k nearest neighbors of q in ascending
	// distance order (possibly fewer when the index holds fewer
	// points, or — for guarantee-aware indexes — when no point meets
	// the relevance bound).
	Search(q Vector, k int) ([]Neighbor, error)
	// Len returns the number of indexed vectors.
	Len() int
	// DistComps returns the cumulative number of distance computations
	// performed by this index since construction (search only).
	DistComps() int64
}

// distCounter provides the shared atomic operation counter.
type distCounter struct{ n atomic.Int64 }

func (c *distCounter) DistComps() int64 { return c.n.Load() }
func (c *distCounter) add(k int64)      { c.n.Add(k) }

// neighborLess is the canonical total order on candidates: ascending
// distance, ties broken by ascending ID. Using it for every heap
// comparison makes the kept top-k set a pure function of the
// candidate multiset — independent of push order — so every index
// agrees with the exact scan on which of several tied candidates it
// keeps at the k-th position.
func neighborLess(a, b Neighbor) bool {
	if a.Dist != b.Dist {
		return a.Dist < b.Dist
	}
	return a.ID < b.ID
}

// topK maintains the k smallest neighbors under neighborLess seen so
// far, using a bounded max-heap laid out in a slice.
type topK struct {
	k     int
	items []Neighbor // max-heap by neighborLess
}

func newTopK(k int) *topK { return &topK{k: k} }

func (t *topK) push(n Neighbor) {
	if len(t.items) < t.k {
		t.items = append(t.items, n)
		t.up(len(t.items) - 1)
		return
	}
	if !neighborLess(n, t.items[0]) {
		return
	}
	t.items[0] = n
	t.down(0)
}

// worst returns the current kth distance, or +Inf while under-full.
func (t *topK) worst() float64 {
	if len(t.items) < t.k {
		return math.Inf(1)
	}
	return t.items[0].Dist
}

func (t *topK) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !neighborLess(t.items[p], t.items[i]) {
			break
		}
		t.items[p], t.items[i] = t.items[i], t.items[p]
		i = p
	}
}

func (t *topK) down(i int) {
	n := len(t.items)
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < n && neighborLess(t.items[big], t.items[l]) {
			big = l
		}
		if r < n && neighborLess(t.items[big], t.items[r]) {
			big = r
		}
		if big == i {
			return
		}
		t.items[i], t.items[big] = t.items[big], t.items[i]
		i = big
	}
}

// sorted drains the heap into neighborLess order.
func (t *topK) sorted() []Neighbor {
	out := make([]Neighbor, len(t.items))
	copy(out, t.items)
	sort.Slice(out, func(i, j int) bool { return neighborLess(out[i], out[j]) })
	return out
}

// Recall returns |approx ∩ exact| / |exact| by ID.
func Recall(exact, approx []Neighbor) float64 {
	if len(exact) == 0 {
		return 1
	}
	set := make(map[int]struct{}, len(exact))
	for _, n := range exact {
		set[n.ID] = struct{}{}
	}
	hit := 0
	for _, n := range approx {
		if _, ok := set[n.ID]; ok {
			hit++
		}
	}
	return float64(hit) / float64(len(exact))
}
