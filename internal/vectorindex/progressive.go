package vectorindex

import (
	"fmt"
	"math"
)

// ProgressiveParams configures the progressive (early-terminating)
// search. Delta is the target probability that the reported top-k is
// the true top-k; Delta >= 1 degenerates to an exactly-guaranteed
// search that only prunes with the triangle-inequality lower bound.
type ProgressiveParams struct {
	Delta     float64 // target correctness probability in (0,1]
	Lists     int     // coarse clusters (as IVF)
	KMeansIts int
	BatchSize int // stopping rule evaluated every BatchSize points
	Seed      int64
}

// Progressive implements ProS-style progressive k-NN with a
// probabilistic quality guarantee — the paper's P1 desideratum of
// similarity search that is fast AND bounds its answer quality, and
// that can decline to answer when nothing meets a relevance bound.
//
// Candidates are visited in ascending centroid-distance order. Two
// mechanisms terminate the scan early:
//
//  1. Exact pruning: a list whose triangle-inequality lower bound
//     max(0, ‖q−c‖ − r_c)² exceeds the current kth distance cannot
//     improve the answer and is skipped. This alone never loses
//     recall.
//  2. Probabilistic stopping: once the heap is full, the rate of
//     improvements among recently visited candidates estimates the
//     per-candidate improvement probability p̂ (with add-one
//     smoothing). When (1−p̂)^m ≥ δ for the m candidates still
//     reachable, the scan stops and reports the achieved promise.
//
// Because candidates are visited nearest-list-first, p̂ over-estimates
// the improvement probability of the farther remainder, making the
// promise conservative; E2 verifies empirically that observed recall
// meets the promised δ.
type Progressive struct {
	distCounter
	params ProgressiveParams
	ivf    *IVF
	radii  []float64 // per-list max member distance to centroid (L2, not squared)
}

// ProgressiveResult reports the neighbors plus the search's quality
// and effort accounting.
type ProgressiveResult struct {
	Neighbors []Neighbor
	// Promise is the probability the reported set is the true top-k,
	// as estimated at termination (≥ Delta unless the scan completed,
	// in which case it is exactly 1).
	Promise float64
	// Visited is the number of candidate distance computations.
	Visited int
	// PrunedLists counts lists skipped by the exact lower bound.
	PrunedLists int
	// Exhausted reports that every non-pruned candidate was visited
	// (the answer is exact regardless of Delta).
	Exhausted bool
}

// NewProgressive builds the index (k-means training as IVF, plus
// per-list radii for the exact lower bound).
func NewProgressive(data []Vector, params ProgressiveParams) (*Progressive, error) {
	if params.Delta <= 0 {
		return nil, fmt.Errorf("vectorindex: Delta must be in (0,1], got %v", params.Delta)
	}
	if params.BatchSize <= 0 {
		params.BatchSize = 64
	}
	ivf, err := NewIVF(data, IVFParams{Lists: params.Lists, Probe: 1, KMeansIts: params.KMeansIts, Seed: params.Seed})
	if err != nil {
		return nil, err
	}
	p := &Progressive{params: params, ivf: ivf}
	p.radii = make([]float64, len(ivf.lists))
	for c, list := range ivf.lists {
		var r float64
		for _, id := range list {
			if d := math.Sqrt(SquaredL2(data[id], ivf.centroids[c])); d > r {
				r = d
			}
		}
		p.radii[c] = r
	}
	return p, nil
}

// Len returns the number of indexed vectors.
func (p *Progressive) Len() int { return p.ivf.Len() }

// Search satisfies Index; it discards the quality report.
func (p *Progressive) Search(q Vector, k int) ([]Neighbor, error) {
	res, err := p.SearchProgressive(q, k)
	if err != nil {
		return nil, err
	}
	return res.Neighbors, nil
}

// SearchProgressive runs the early-terminating scan.
func (p *Progressive) SearchProgressive(q Vector, k int) (*ProgressiveResult, error) {
	if p.ivf.Len() == 0 {
		return nil, ErrEmpty
	}
	if len(q) != p.ivf.dim {
		return nil, ErrDimension
	}
	if k <= 0 {
		return &ProgressiveResult{Promise: 1, Exhausted: true}, nil
	}
	order := p.ivf.orderedLists(q)
	p.add(int64(len(p.ivf.centroids)))

	// Candidates remaining in non-pruned, unvisited territory.
	remaining := 0
	for _, c := range order {
		remaining += len(p.ivf.lists[c])
	}

	heap := newTopK(k)
	res := &ProgressiveResult{}
	visitedSinceFull, improvesSinceFull := 0, 0
	var comps int64

	for _, c := range order {
		list := p.ivf.lists[c]
		dq := math.Sqrt(SquaredL2(q, p.ivf.centroids[c]))
		comps++
		lb := dq - p.radii[c]
		if lb > 0 && lb*lb > heap.worst() {
			// Exact prune: nothing in this list can improve the heap.
			res.PrunedLists++
			remaining -= len(list)
			continue
		}
		for i, id := range list {
			d := SquaredL2(q, p.ivf.data[id])
			comps++
			res.Visited++
			remaining--
			full := len(heap.items) >= k
			if full {
				visitedSinceFull++
			}
			if d < heap.worst() {
				if full {
					improvesSinceFull++
				}
				heap.push(Neighbor{ID: id, Dist: d})
			} else if !full {
				heap.push(Neighbor{ID: id, Dist: d})
			}
			// Evaluate the stopping rule at batch boundaries.
			if p.params.Delta < 1 && len(heap.items) >= k && (res.Visited%p.params.BatchSize == 0) {
				_ = i
				promise := p.promise(visitedSinceFull, improvesSinceFull, remaining)
				if promise >= p.params.Delta {
					res.Promise = promise
					res.Neighbors = heap.sorted()
					p.add(comps)
					return res, nil
				}
			}
		}
	}
	p.add(comps)
	res.Neighbors = heap.sorted()
	res.Promise = 1
	res.Exhausted = true
	return res, nil
}

// promise estimates P(no remaining candidate improves the top-k) =
// (1 - p̂)^m with add-one-smoothed improvement rate p̂.
func (p *Progressive) promise(visited, improves, remaining int) float64 {
	if remaining <= 0 {
		return 1
	}
	pHat := (float64(improves) + 1) / (float64(visited) + 2)
	return math.Pow(1-pHat, float64(remaining))
}
