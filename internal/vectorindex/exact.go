package vectorindex

// Exact is the brute-force scan baseline: always correct, O(n·d) per
// query. It anchors recall measurements for every other index.
type Exact struct {
	distCounter
	data []Vector
	dim  int
}

// NewExact indexes the given vectors; IDs are their positions.
func NewExact(data []Vector) *Exact {
	e := &Exact{data: data}
	if len(data) > 0 {
		e.dim = len(data[0])
	}
	return e
}

// Len returns the number of indexed vectors.
func (e *Exact) Len() int { return len(e.data) }

// Search scans every vector.
func (e *Exact) Search(q Vector, k int) ([]Neighbor, error) {
	if len(e.data) == 0 {
		return nil, ErrEmpty
	}
	if len(q) != e.dim {
		return nil, ErrDimension
	}
	if k <= 0 {
		return nil, nil
	}
	heap := newTopK(k)
	for id, v := range e.data {
		heap.push(Neighbor{ID: id, Dist: SquaredL2(q, v)})
	}
	e.add(int64(len(e.data)))
	return heap.sorted(), nil
}
