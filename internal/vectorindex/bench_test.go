package vectorindex_test

import (
	"fmt"
	"testing"

	"github.com/reliable-cda/cda/internal/vectorindex"
	"github.com/reliable-cda/cda/internal/workload"
)

// BenchmarkParallelIVFProbe sweeps IVFParams.Workers over the probe
// phase on the E2 vector workload: workers=1 is the exact serial code
// path, and the sweep is what the probe's internal/parallel call site
// is judged on.
func BenchmarkParallelIVFProbe(b *testing.B) {
	p := workload.VectorParams{N: 20000, Queries: 64, Dim: 32, Clusters: 16, Spread: 1, Scale: 5, Seed: 1}
	data, queries := workload.GenVectors(p)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			idx, err := vectorindex.NewIVF(data, vectorindex.IVFParams{
				Lists: 64, Probe: 16, KMeansIts: 5, Seed: 1, Workers: workers,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := idx.Search(queries[i%len(queries)], 10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
