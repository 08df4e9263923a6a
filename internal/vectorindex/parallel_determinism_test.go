package vectorindex

import (
	"math/rand"
	"testing"
)

// genVecs produces a deterministic random dataset plus queries.
func genVecs(n, dim, queries int, seed int64) ([]Vector, []Vector) {
	rng := rand.New(rand.NewSource(seed))
	data := make([]Vector, n)
	for i := range data {
		v := make(Vector, dim)
		for d := range v {
			v[d] = float32(rng.NormFloat64())
		}
		data[i] = v
	}
	qs := make([]Vector, queries)
	for i := range qs {
		v := make(Vector, dim)
		for d := range v {
			v[d] = float32(rng.NormFloat64())
		}
		qs[i] = v
	}
	return data, qs
}

func sameNeighbors(t *testing.T, label string, want, got []Neighbor) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d neighbors, want %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: neighbor %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// TestIVFParallelProbeMatchesSerial is the determinism property test
// the parallel probe must pass: for randomized workloads, the
// parallel probe returns exactly the serial probe's neighbors at the
// same nprobe.
func TestIVFParallelProbeMatchesSerial(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		data, queries := genVecs(3000, 16, 40, seed)
		params := IVFParams{Lists: 32, Probe: 8, KMeansIts: 5, Seed: seed}
		serialIdx, err := NewIVF(data, params)
		if err != nil {
			t.Fatal(err)
		}
		serialIdx.par.Workers = 1 // force the serial probe
		for _, workers := range []int{2, 4, 8} {
			params.Workers = workers
			parIdx, err := NewIVF(data, params)
			if err != nil {
				t.Fatal(err)
			}
			parIdx.par.SerialThreshold = 1 // force the parallel probe on this small fixture
			for qi, q := range queries {
				want, err := serialIdx.Search(q, 10)
				if err != nil {
					t.Fatal(err)
				}
				got, err := parIdx.Search(q, 10)
				if err != nil {
					t.Fatal(err)
				}
				sameNeighbors(t, "seed/workers/query", want, got)
				_ = qi
			}
		}
	}
}

// TestIVFParallelProbeCountsDistances verifies the parallel probe's
// effort accounting matches the serial probe's: identical total
// distance computations for the same query stream.
func TestIVFParallelProbeCountsDistances(t *testing.T) {
	data, queries := genVecs(2000, 8, 20, 7)
	params := IVFParams{Lists: 16, Probe: 6, KMeansIts: 5, Seed: 7}
	serialIdx, err := NewIVF(data, params)
	if err != nil {
		t.Fatal(err)
	}
	serialIdx.par.Workers = 1
	params.Workers = 4
	parIdx, err := NewIVF(data, params)
	if err != nil {
		t.Fatal(err)
	}
	parIdx.par.SerialThreshold = 1
	for _, q := range queries {
		if _, err := serialIdx.Search(q, 5); err != nil {
			t.Fatal(err)
		}
		if _, err := parIdx.Search(q, 5); err != nil {
			t.Fatal(err)
		}
	}
	if s, p := serialIdx.DistComps(), parIdx.DistComps(); s != p {
		t.Fatalf("parallel probe counted %d distance comps, serial %d", p, s)
	}
}

// TestTopKCanonicalUnderTies: with duplicated vectors (exact distance
// ties) the kept top-k must not depend on scan order, or parallel
// merges would diverge from serial scans.
func TestTopKCanonicalUnderTies(t *testing.T) {
	base, _ := genVecs(50, 8, 0, 11)
	// Every vector appears 4 times → every distance ties 4 ways.
	var data []Vector
	for r := 0; r < 4; r++ {
		data = append(data, base...)
	}
	q := make(Vector, 8)
	exact := NewExact(data)
	want, err := exact.Search(q, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 3, 8} {
		merged := newTopK(7)
		for s := 0; s < shards; s++ {
			// Strided shards, scanned high to low: neither the split
			// nor the visit order is the serial scan's.
			h := newTopK(7)
			for id := len(data) - 1 - s; id >= 0; id -= shards {
				h.push(Neighbor{ID: id, Dist: SquaredL2(q, data[id])})
			}
			merged.merge(h)
		}
		sameNeighbors(t, "ties", want, merged.sorted())
	}
}
