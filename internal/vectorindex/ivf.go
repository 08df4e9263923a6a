package vectorindex

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// IVFParams configures an inverted-file index: vectors are assigned to
// the nearest of Lists k-means centroids; queries probe the Probe
// nearest lists.
type IVFParams struct {
	Lists     int // number of coarse clusters
	Probe     int // lists visited per query
	KMeansIts int // Lloyd iterations
	Seed      int64
}

// IVF is an inverted-file (coarse-quantization) index: the second
// fast-without-guarantees regime, and the candidate-ordering substrate
// the Progressive index reuses.
type IVF struct {
	distCounter
	params    IVFParams
	data      []Vector
	dim       int
	centroids []Vector
	lists     [][]int
	// Faults, when non-nil, injects deterministic chaos faults into
	// searches.
	Faults FaultHook
}

// NewIVF trains the coarse quantizer with seeded k-means and assigns
// every vector to its nearest centroid.
func NewIVF(data []Vector, params IVFParams) (*IVF, error) {
	if params.Lists <= 0 || params.Probe <= 0 {
		return nil, fmt.Errorf("vectorindex: invalid IVF params %+v", params)
	}
	if params.Probe > params.Lists {
		params.Probe = params.Lists
	}
	if params.KMeansIts <= 0 {
		params.KMeansIts = 10
	}
	idx := &IVF{params: params, data: data}
	if len(data) == 0 {
		return idx, nil
	}
	idx.dim = len(data[0])
	if params.Lists > len(data) {
		params.Lists = len(data)
		idx.params.Lists = len(data)
		if idx.params.Probe > idx.params.Lists {
			idx.params.Probe = idx.params.Lists
		}
	}
	idx.centroids = kmeans(data, params.Lists, params.KMeansIts, params.Seed)
	idx.lists = make([][]int, len(idx.centroids))
	for id, v := range data {
		c := nearestCentroid(v, idx.centroids)
		idx.lists[c] = append(idx.lists[c], id)
	}
	return idx, nil
}

// kmeans runs Lloyd's algorithm with k-means++-style seeding from a
// deterministic RNG.
func kmeans(data []Vector, k, iters int, seed int64) []Vector {
	rng := rand.New(rand.NewSource(seed))
	dim := len(data[0])
	centroids := make([]Vector, 0, k)
	// k-means++ seeding.
	first := rng.Intn(len(data))
	centroids = append(centroids, append(Vector{}, data[first]...))
	minDist := make([]float64, len(data))
	for i := range minDist {
		minDist[i] = SquaredL2(data[i], centroids[0])
	}
	for len(centroids) < k {
		var total float64
		for _, d := range minDist {
			total += d
		}
		var pick int
		if total == 0 {
			pick = rng.Intn(len(data))
		} else {
			r := rng.Float64() * total
			for i, d := range minDist {
				r -= d
				if r <= 0 {
					pick = i
					break
				}
			}
		}
		c := append(Vector{}, data[pick]...)
		centroids = append(centroids, c)
		for i := range minDist {
			if d := SquaredL2(data[i], c); d < minDist[i] {
				minDist[i] = d
			}
		}
	}
	// Lloyd iterations.
	assign := make([]int, len(data))
	for it := 0; it < iters; it++ {
		changed := false
		for i, v := range data {
			c := nearestCentroid(v, centroids)
			if assign[i] != c {
				assign[i] = c
				changed = true
			}
		}
		if !changed && it > 0 {
			break
		}
		sums := make([][]float64, k)
		counts := make([]int, k)
		for i := range sums {
			sums[i] = make([]float64, dim)
		}
		for i, v := range data {
			c := assign[i]
			counts[c]++
			for d := range v {
				sums[c][d] += float64(v[d])
			}
		}
		for c := range centroids {
			if counts[c] == 0 {
				// Re-seed empty cluster at a random point.
				copy(centroids[c], data[rng.Intn(len(data))])
				continue
			}
			for d := 0; d < dim; d++ {
				centroids[c][d] = float32(sums[c][d] / float64(counts[c]))
			}
		}
	}
	return centroids
}

func nearestCentroid(v Vector, centroids []Vector) int {
	best, bestD := 0, math.Inf(1)
	for c, cent := range centroids {
		if d := SquaredL2(v, cent); d < bestD {
			best, bestD = c, d
		}
	}
	return best
}

// Len returns the number of indexed vectors.
func (ivf *IVF) Len() int { return len(ivf.data) }

// orderedLists returns list indices by ascending centroid distance.
func (ivf *IVF) orderedLists(q Vector) []int {
	type cd struct {
		c int
		d float64
	}
	ds := make([]cd, len(ivf.centroids))
	for c, cent := range ivf.centroids {
		ds[c] = cd{c, SquaredL2(q, cent)}
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i].d < ds[j].d })
	out := make([]int, len(ds))
	for i, x := range ds {
		out[i] = x.c
	}
	return out
}

// Search probes the nearest Probe lists and ranks their members.
func (ivf *IVF) Search(q Vector, k int) ([]Neighbor, error) {
	if ivf.Faults != nil {
		if err := ivf.Faults.Inject("vectorindex.search"); err != nil {
			return nil, err
		}
	}
	if len(ivf.data) == 0 {
		return nil, ErrEmpty
	}
	if len(q) != ivf.dim {
		return nil, ErrDimension
	}
	if k <= 0 {
		return nil, nil
	}
	order := ivf.orderedLists(q)
	ivf.add(int64(len(ivf.centroids)))
	probe := ivf.params.Probe
	if probe > len(order) {
		probe = len(order)
	}
	h := newTopK(k)
	var comps int64
	for _, c := range order[:probe] {
		for _, id := range ivf.lists[c] {
			h.push(Neighbor{ID: id, Dist: SquaredL2(q, ivf.data[id])})
			comps++
		}
	}
	ivf.add(comps)
	return h.sorted(), nil
}
