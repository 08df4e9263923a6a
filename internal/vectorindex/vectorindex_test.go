package vectorindex

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// randomData draws n d-dimensional vectors from a mixture of c
// Gaussian clusters, the workload shape E2 uses.
func randomData(n, d, c int, seed int64) []Vector {
	rng := rand.New(rand.NewSource(seed))
	centers := make([]Vector, c)
	for i := range centers {
		centers[i] = make(Vector, d)
		for j := range centers[i] {
			centers[i][j] = float32(rng.NormFloat64() * 5)
		}
	}
	data := make([]Vector, n)
	for i := range data {
		ctr := centers[rng.Intn(c)]
		v := make(Vector, d)
		for j := range v {
			v[j] = ctr[j] + float32(rng.NormFloat64())
		}
		data[i] = v
	}
	return data
}

func TestDistances(t *testing.T) {
	a := Vector{1, 0, 0}
	b := Vector{0, 1, 0}
	if got := SquaredL2(a, b); got != 2 {
		t.Errorf("SquaredL2 = %v", got)
	}
}

func TestTopKHeap(t *testing.T) {
	h := newTopK(3)
	for _, d := range []float64{5, 1, 4, 2, 3} {
		h.push(Neighbor{ID: int(d), Dist: d})
	}
	got := h.sorted()
	if len(got) != 3 || got[0].Dist != 1 || got[1].Dist != 2 || got[2].Dist != 3 {
		t.Errorf("topk = %v", got)
	}
	if h.worst() != 3 {
		t.Errorf("worst = %v", h.worst())
	}
}

func TestTopKUnderfull(t *testing.T) {
	h := newTopK(5)
	h.push(Neighbor{ID: 1, Dist: 9})
	if !math.IsInf(h.worst(), 1) {
		t.Error("underfull heap must report +Inf worst")
	}
	if len(h.sorted()) != 1 {
		t.Error("underfull sorted length")
	}
}

// TestTopKCanonicalUnderTies: with duplicated vectors (exact distance
// ties) the kept top-k must not depend on the order candidates are
// pushed in, or an index's visit order would decide which tie it keeps.
func TestTopKCanonicalUnderTies(t *testing.T) {
	base := randomData(50, 8, 3, 11)
	// Every vector appears 4 times → every distance ties 4 ways.
	var data []Vector
	for r := 0; r < 4; r++ {
		data = append(data, base...)
	}
	q := make(Vector, 8)
	want, err := NewExact(data).Search(q, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, stride := range []int{2, 3, 8} {
		// Strided passes, each scanned high to low: not the exact
		// scan's visit order.
		h := newTopK(7)
		for s := 0; s < stride; s++ {
			for id := len(data) - 1 - s; id >= 0; id -= stride {
				h.push(Neighbor{ID: id, Dist: SquaredL2(q, data[id])})
			}
		}
		if got := h.sorted(); !reflect.DeepEqual(got, want) {
			t.Fatalf("stride %d: top-k %v, want %v", stride, got, want)
		}
	}
}

func TestExactSearch(t *testing.T) {
	data := []Vector{{0, 0}, {1, 0}, {3, 0}, {10, 0}}
	idx := NewExact(data)
	got, err := idx.Search(Vector{0.9, 0}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].ID != 1 || got[1].ID != 0 {
		t.Errorf("neighbors = %v", got)
	}
	if idx.DistComps() != 4 {
		t.Errorf("distcomps = %d", idx.DistComps())
	}
}

func TestExactErrors(t *testing.T) {
	idx := NewExact(nil)
	if _, err := idx.Search(Vector{1}, 1); err != ErrEmpty {
		t.Errorf("want ErrEmpty, got %v", err)
	}
	idx = NewExact([]Vector{{1, 2}})
	if _, err := idx.Search(Vector{1}, 1); err != ErrDimension {
		t.Errorf("want ErrDimension, got %v", err)
	}
	got, err := idx.Search(Vector{1, 2}, 0)
	if err != nil || got != nil {
		t.Error("k=0 must return empty")
	}
}

func TestLSHRecallAndSpeed(t *testing.T) {
	all := randomData(2050, 16, 8, 42)
	data, queries := all[:2000], all[2000:]
	exact := NewExact(data)
	lsh, err := NewLSH(data, LSHParams{Tables: 10, Hashes: 4, Width: 16, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var recall float64
	for _, q := range queries {
		ex, _ := exact.Search(q, 10)
		ap, err := lsh.Search(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		recall += Recall(ex, ap)
	}
	recall /= float64(len(queries))
	if recall < 0.5 {
		t.Errorf("LSH recall = %v, too low for clustered data", recall)
	}
	// LSH must do far fewer distance computations than exact.
	if lsh.DistComps() >= exact.DistComps() {
		t.Errorf("LSH comps %d >= exact %d", lsh.DistComps(), exact.DistComps())
	}
}

func TestLSHParamValidation(t *testing.T) {
	if _, err := NewLSH(nil, LSHParams{}); err == nil {
		t.Error("zero params must error")
	}
}

func TestLSHEmptyAndDim(t *testing.T) {
	lsh, _ := NewLSH(nil, LSHParams{Tables: 8, Hashes: 8, Width: 2.0, Seed: 1})
	if _, err := lsh.Search(Vector{1}, 1); err != ErrEmpty {
		t.Errorf("want ErrEmpty, got %v", err)
	}
	lsh, _ = NewLSH([]Vector{{1, 2}}, LSHParams{Tables: 8, Hashes: 8, Width: 2.0, Seed: 1})
	if _, err := lsh.Search(Vector{1}, 1); err != ErrDimension {
		t.Errorf("want ErrDimension, got %v", err)
	}
}

func TestIVFRecall(t *testing.T) {
	all := randomData(2050, 16, 8, 42)
	data, queries := all[:2000], all[2000:]
	exact := NewExact(data)
	ivf, err := NewIVF(data, IVFParams{Lists: 32, Probe: 8, KMeansIts: 10, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var recall float64
	for _, q := range queries {
		ex, _ := exact.Search(q, 10)
		ap, err := ivf.Search(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		recall += Recall(ex, ap)
	}
	recall /= float64(len(queries))
	if recall < 0.7 {
		t.Errorf("IVF recall = %v", recall)
	}
	if ivf.DistComps() >= exact.DistComps() {
		t.Errorf("IVF comps %d >= exact %d", ivf.DistComps(), exact.DistComps())
	}
}

// probedLists returns the lists ivf.Search visits for q: the Probe
// lists whose centroids are nearest q.
func probedLists(ivf *IVF, q Vector) [][]int {
	order := ivf.orderedLists(q)
	if len(order) > ivf.params.Probe {
		order = order[:ivf.params.Probe]
	}
	lists := make([][]int, len(order))
	for i, c := range order {
		lists[i] = ivf.lists[c]
	}
	return lists
}

// TestIVFSearchMatchesProbedScan: for randomized workloads the probe
// returns exactly the top-k of the probed lists' members, as a scan of
// them in reverse visit order ranks it.
func TestIVFSearchMatchesProbedScan(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		all := randomData(3040, 16, 8, seed)
		data, queries := all[:3000], all[3000:]
		ivf, err := NewIVF(data, IVFParams{Lists: 32, Probe: 8, KMeansIts: 5, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		for qi, q := range queries {
			lists := probedLists(ivf, q)
			h := newTopK(10)
			for i := len(lists) - 1; i >= 0; i-- {
				for j := len(lists[i]) - 1; j >= 0; j-- {
					id := lists[i][j]
					h.push(Neighbor{ID: id, Dist: SquaredL2(q, data[id])})
				}
			}
			got, err := ivf.Search(q, 10)
			if err != nil {
				t.Fatal(err)
			}
			if want := h.sorted(); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d query %d: neighbors %v, want %v", seed, qi, got, want)
			}
		}
	}
}

// TestIVFSearchCountsDistances: a search counts one distance per
// centroid and one per member of every probed list, no more.
func TestIVFSearchCountsDistances(t *testing.T) {
	all := randomData(2020, 8, 4, 7)
	data, queries := all[:2000], all[2000:]
	ivf, err := NewIVF(data, IVFParams{Lists: 16, Probe: 6, KMeansIts: 5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for _, q := range queries {
		want += int64(len(ivf.centroids))
		for _, l := range probedLists(ivf, q) {
			want += int64(len(l))
		}
		if _, err := ivf.Search(q, 5); err != nil {
			t.Fatal(err)
		}
	}
	if got := ivf.DistComps(); got != want {
		t.Fatalf("probe counted %d distance comps, want %d", got, want)
	}
}

func TestIVFMoreListsThanPoints(t *testing.T) {
	data := randomData(5, 4, 1, 1)
	ivf, err := NewIVF(data, IVFParams{Lists: 50, Probe: 50, KMeansIts: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ivf.Search(data[0], 3)
	if err != nil || len(got) != 3 {
		t.Errorf("search = %v, %v", got, err)
	}
	if got[0].ID != 0 || got[0].Dist != 0 {
		t.Errorf("self not first: %v", got)
	}
}

func TestProgressiveExactMode(t *testing.T) {
	all := randomData(1030, 8, 4, 3)
	data, queries := all[:1000], all[1000:]
	exact := NewExact(data)
	prog, err := NewProgressive(data, ProgressiveParams{Delta: 1.0, Lists: 16, KMeansIts: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		ex, _ := exact.Search(q, 5)
		res, err := prog.SearchProgressive(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		if r := Recall(ex, res.Neighbors); r != 1 {
			t.Fatalf("delta=1 recall = %v (must be exact)", r)
		}
		if res.Promise != 1 {
			t.Errorf("delta=1 promise = %v", res.Promise)
		}
	}
	// Pruning must save at least some work versus brute force.
	if prog.DistComps() >= exact.DistComps() {
		t.Errorf("progressive comps %d >= exact %d", prog.DistComps(), exact.DistComps())
	}
}

func TestProgressiveProbabilisticGuarantee(t *testing.T) {
	all := randomData(3100, 16, 8, 11)
	data, queries := all[:3000], all[3000:]
	exact := NewExact(data)
	delta := 0.9
	prog, err := NewProgressive(data, ProgressiveParams{Delta: delta, Lists: 48, KMeansIts: 8, BatchSize: 32, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var sumRecall float64
	for _, q := range queries {
		ex, _ := exact.Search(q, 10)
		res, err := prog.SearchProgressive(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		if res.Promise < delta {
			t.Fatalf("promise %v below delta %v", res.Promise, delta)
		}
		sumRecall += Recall(ex, res.Neighbors)
	}
	avgRecall := sumRecall / float64(len(queries))
	// The empirical recall must meet the promise (small slack for the
	// estimator's randomness).
	if avgRecall < delta-0.05 {
		t.Errorf("avg recall %v < promised %v", avgRecall, delta)
	}
	if prog.DistComps() >= exact.DistComps() {
		t.Errorf("progressive comps %d >= exact %d", prog.DistComps(), exact.DistComps())
	}
}

func TestProgressiveValidation(t *testing.T) {
	if _, err := NewProgressive(nil, ProgressiveParams{Delta: 0}); err == nil {
		t.Error("delta 0 must error")
	}
	prog, err := NewProgressive(nil, ProgressiveParams{Delta: 0.5, Lists: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prog.SearchProgressive(Vector{1}, 1); err != ErrEmpty {
		t.Errorf("want ErrEmpty, got %v", err)
	}
}

func TestRecallHelper(t *testing.T) {
	ex := []Neighbor{{ID: 1}, {ID: 2}}
	ap := []Neighbor{{ID: 2}, {ID: 3}}
	if got := Recall(ex, ap); got != 0.5 {
		t.Errorf("recall = %v", got)
	}
	if got := Recall(nil, ap); got != 1 {
		t.Errorf("empty exact recall = %v", got)
	}
}

// Property: exact search self-query always returns the query point
// first with distance 0.
func TestExactSelfQueryProperty(t *testing.T) {
	data := randomData(200, 8, 4, 21)
	idx := NewExact(data)
	f := func(raw uint16) bool {
		i := int(raw) % len(data)
		got, err := idx.Search(data[i], 1)
		if err != nil || len(got) != 1 {
			return false
		}
		return got[0].Dist == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: exact top-k is a prefix of exact top-(k+1).
func TestExactPrefixProperty(t *testing.T) {
	data := randomData(300, 8, 4, 31)
	idx := NewExact(data)
	q := Vector{0, 0, 0, 0, 0, 0, 0, 0}
	prev, err := idx.Search(q, 1)
	if err != nil {
		t.Fatal(err)
	}
	for k := 2; k <= 20; k++ {
		cur, err := idx.Search(q, k)
		if err != nil {
			t.Fatal(err)
		}
		for i := range prev {
			if cur[i].ID != prev[i].ID {
				t.Fatalf("top-%d not a prefix of top-%d", k-1, k)
			}
		}
		prev = cur
	}
}

// Property: triangle-inequality pruning in Progressive never loses a
// true neighbor when Delta = 1, on adversarially tight clusters.
func TestProgressivePruneSoundProperty(t *testing.T) {
	f := func(seed int64) bool {
		data := randomData(300, 4, 3, seed)
		exact := NewExact(data)
		prog, err := NewProgressive(data, ProgressiveParams{Delta: 1, Lists: 8, KMeansIts: 5, Seed: seed + 1})
		if err != nil {
			return false
		}
		q := data[0]
		ex, _ := exact.Search(q, 5)
		res, err := prog.SearchProgressive(q, 5)
		if err != nil {
			return false
		}
		return Recall(ex, res.Neighbors) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestProgressiveIndexInterface(t *testing.T) {
	data := randomData(300, 8, 4, 2)
	prog, err := NewProgressive(data, ProgressiveParams{Delta: 0.9, Lists: 17, KMeansIts: 10, BatchSize: 64, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if prog.Len() != 300 {
		t.Errorf("len = %d", prog.Len())
	}
	var idx Index = prog // satisfies Index
	nn, err := idx.Search(data[0], 5)
	if err != nil || len(nn) != 5 || nn[0].Dist != 0 {
		t.Errorf("search = %v, %v", nn, err)
	}
	// k <= 0 short-circuits.
	res, err := prog.SearchProgressive(data[0], 0)
	if err != nil || len(res.Neighbors) != 0 || res.Promise != 1 {
		t.Errorf("k=0 result = %+v, %v", res, err)
	}
	if _, err := prog.SearchProgressive(Vector{1}, 3); err != ErrDimension {
		t.Errorf("dim err = %v", err)
	}
}
