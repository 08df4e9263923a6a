package cda

// bench_test.go regenerates every experiment in EXPERIMENTS.md as a
// testing.B benchmark (one per table/figure of the reproduction, per
// DESIGN.md §4), plus microbenchmarks for the individual substrates
// and the ablations DESIGN.md §6 calls out. Run with:
//
//	go test -bench=. -benchmem
//
// The experiment benches report their headline metric as a custom
// b.ReportMetric value so the shape claims are visible in benchmark
// output, not just in cdabench tables.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"github.com/reliable-cda/cda/internal/core"
	"github.com/reliable-cda/cda/internal/experiments"
	"github.com/reliable-cda/cda/internal/ground"
	"github.com/reliable-cda/cda/internal/kg"
	"github.com/reliable-cda/cda/internal/nl2sql"
	"github.com/reliable-cda/cda/internal/nlmodel"
	"github.com/reliable-cda/cda/internal/sqldb"
	"github.com/reliable-cda/cda/internal/storage"
	"github.com/reliable-cda/cda/internal/timeseries"
	"github.com/reliable-cda/cda/internal/vectorindex"
	"github.com/reliable-cda/cda/internal/workload"
)

// --- E1: Figure 1 dialogue ---------------------------------------------

func BenchmarkE1Figure1Dialogue(b *testing.B) {
	var conf float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunE1(context.Background(), 1)
		if err != nil {
			b.Fatal(err)
		}
		conf = r.SeasonConfidence
	}
	b.ReportMetric(conf, "season-confidence")
}

// --- E2: similarity search regimes -------------------------------------

func benchVectorIndex(b *testing.B, build func(data []vectorindex.Vector) vectorindex.Index) {
	p := workload.VectorParams{N: 20000, Queries: 64, Dim: 32, Clusters: 16, Spread: 1, Scale: 5, Seed: 1}
	data, queries := workload.GenVectors(p)
	idx := build(data)
	exact := vectorindex.NewExact(data)
	truth := make([][]vectorindex.Neighbor, len(queries))
	for i, q := range queries {
		truth[i], _ = exact.Search(q, 10)
	}
	var recallSum float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		nn, err := idx.Search(q, 10)
		if err != nil {
			b.Fatal(err)
		}
		recallSum += vectorindex.Recall(truth[i%len(queries)], nn)
	}
	b.ReportMetric(recallSum/float64(b.N), "recall")
}

func BenchmarkE2VectorSearchExact(b *testing.B) {
	benchVectorIndex(b, func(data []vectorindex.Vector) vectorindex.Index {
		return vectorindex.NewExact(data)
	})
}

func BenchmarkE2VectorSearchLSH(b *testing.B) {
	benchVectorIndex(b, func(data []vectorindex.Vector) vectorindex.Index {
		idx, err := vectorindex.NewLSH(data, vectorindex.LSHParams{Tables: 10, Hashes: 4, Width: 16, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		return idx
	})
}

func BenchmarkE2VectorSearchIVF(b *testing.B) {
	benchVectorIndex(b, func(data []vectorindex.Vector) vectorindex.Index {
		idx, err := vectorindex.NewIVF(data, vectorindex.IVFParams{Lists: 64, Probe: 6, KMeansIts: 8, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		return idx
	})
}

func BenchmarkE2VectorSearchProgressive(b *testing.B) {
	benchVectorIndex(b, func(data []vectorindex.Vector) vectorindex.Index {
		idx, err := vectorindex.NewProgressive(data, vectorindex.ProgressiveParams{Delta: 0.9, Lists: 64, KMeansIts: 8, BatchSize: 64, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		return idx
	})
}

// Ablation (DESIGN §6.1): progressive early-stopping target δ.
func BenchmarkAblationProgressiveDelta(b *testing.B) {
	p := workload.VectorParams{N: 10000, Queries: 32, Dim: 32, Clusters: 16, Spread: 1, Scale: 5, Seed: 1}
	data, queries := workload.GenVectors(p)
	for _, delta := range []float64{0.75, 0.9, 0.99} {
		b.Run(fmt.Sprintf("delta=%.2f", delta), func(b *testing.B) {
			idx, err := vectorindex.NewProgressive(data, vectorindex.ProgressiveParams{Delta: delta, Lists: 64, KMeansIts: 8, BatchSize: 64, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			before := idx.DistComps()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := idx.Search(queries[i%len(queries)], 10); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(idx.DistComps()-before)/float64(b.N), "dist-comps/op")
		})
	}
}

// --- E3: grounding ------------------------------------------------------

func BenchmarkE3Grounding(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunE3(60, 0.8, 0.05, 5)
		if err != nil {
			b.Fatal(err)
		}
		gain = r.With.ExecAccuracy - r.Without.ExecAccuracy
	}
	b.ReportMetric(gain, "accuracy-gain")
}

// --- E4: provenance overhead -------------------------------------------

func BenchmarkE4ProvenanceOverhead(b *testing.B) {
	w := workload.GenNL2SQL(40, 0, 5)
	for _, capture := range []bool{false, true} {
		b.Run(fmt.Sprintf("capture=%v", capture), func(b *testing.B) {
			eng := sqldb.NewEngine(w.DB)
			eng.CaptureProvenance = capture
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Query(w.Pairs[i%len(w.Pairs)].GoldSQL); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E5: calibration ----------------------------------------------------

func BenchmarkE5Calibration(b *testing.B) {
	var ece float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunE5(80, 0.2, 5)
		if err != nil {
			b.Fatal(err)
		}
		ece = r.Rows[2].ECE // recalibrated scheme
	}
	b.ReportMetric(ece, "recalibrated-ECE")
}

// Ablation (DESIGN §6.3): self-consistency sample count m.
func BenchmarkAblationConsistencySamples(b *testing.B) {
	w := workload.GenNL2SQL(40, 0.3, 9)
	grounder := ground.NewGrounder(nil, w.DB, w.Vocab)
	for _, m := range []int{1, 3, 5, 9} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			opts := nl2sql.DefaultOptions()
			opts.Samples = m
			for i := 0; i < b.N; i++ {
				tr := nl2sql.NewTranslator(w.DB, grounder, int64(i))
				tr.Channel = nlmodel.Channel{HallucinationRate: 0.15, Fabrications: w.Fabrications}
				tr.Options = opts
				if _, err := tr.Translate(w.Pairs[i%len(w.Pairs)].Question); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E6: guidance -------------------------------------------------------

func BenchmarkE6Guidance(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunE6(context.Background(), 4, 6, 3)
		if err != nil {
			b.Fatal(err)
		}
		gap = r.GuidedSuccess - r.RandomSuccess
	}
	b.ReportMetric(gap, "success-gap")
}

// --- E7: NL2SQL ladder --------------------------------------------------

func BenchmarkE7NL2SQLAblation(b *testing.B) {
	var acc float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunE7(40, 0.3, 0.1, 5)
		if err != nil {
			b.Fatal(err)
		}
		acc = r.Stages[len(r.Stages)-1].ExecAccuracy
	}
	b.ReportMetric(acc, "full-pipeline-acc")
}

// --- E8: interplay matrix -----------------------------------------------

func BenchmarkE8InterplayMatrix(b *testing.B) {
	var acc float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunE8(context.Background(), 0.15, 5)
		if err != nil {
			b.Fatal(err)
		}
		acc = r.Rows[0].ExecAcc
	}
	b.ReportMetric(acc, "full-system-acc")
}

// --- E9: multimodal discovery ---------------------------------------

func BenchmarkE9DiscoveryModes(b *testing.B) {
	var hybridMRR float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunE9(60, 7)
		if err != nil {
			b.Fatal(err)
		}
		hybridMRR = r.Rows[2].MRR
	}
	b.ReportMetric(hybridMRR, "hybrid-MRR")
}

// --- E10: bias identification -----------------------------------------

func BenchmarkE10BiasIdentification(b *testing.B) {
	var f1 float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunE10(3, 25, 7)
		if err != nil {
			b.Fatal(err)
		}
		f1 = r.F1
	}
	b.ReportMetric(f1, "F1")
}

// Ablation (DESIGN §6.4): holistic-optimizer cache on/off for repeated
// questions.
func BenchmarkAblationAnswerCache(b *testing.B) {
	d := workload.NewSwissDomain(1)
	questions := []string{
		"how many employment where canton is Zurich",
		"what is the average value in barometer",
		"how many barometer",
	}
	for _, cacheSize := range []int{1 /* effectively off */, 256} {
		b.Run(fmt.Sprintf("cache=%d", cacheSize), func(b *testing.B) {
			sys := core.New(core.Config{
				DB: d.DB, Catalog: d.Catalog, KG: d.KG, Vocab: d.Vocab, Documents: d.Documents, Now: d.Now,
				Seed: 1, CacheSize: cacheSize,
			})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// A fresh session per turn keeps the dialogue state
				// constant-size; the answer cache lives on the System
				// and persists across sessions.
				sess := sys.NewSession()
				if _, err := sys.Respond(context.Background(), sess, questions[i%len(questions)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- substrate microbenchmarks ------------------------------------------

func BenchmarkSQLFilterScan(b *testing.B) {
	w := workload.GenNL2SQL(1, 0, 3)
	eng := sqldb.NewEngine(w.DB)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Query("SELECT COUNT(*) FROM employees WHERE salary > 100"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSQLGroupBy(b *testing.B) {
	w := workload.GenNL2SQL(1, 0, 3)
	eng := sqldb.NewEngine(w.DB)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Query("SELECT department, AVG(salary) FROM employees GROUP BY department"); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation: hash join + predicate pushdown vs the naive plan on a
// two-table equi-join.
func BenchmarkAblationJoinOptimizer(b *testing.B) {
	db := storage.NewDatabase("join")
	left := storage.NewTable("facts", storage.Schema{
		{Name: "k", Kind: storage.KindInt}, {Name: "v", Kind: storage.KindFloat},
	})
	right := storage.NewTable("dims", storage.Schema{
		{Name: "k", Kind: storage.KindInt}, {Name: "label", Kind: storage.KindString},
	})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		left.MustAppendRow(storage.Int(int64(rng.Intn(500))), storage.Float(rng.Float64()*100))
	}
	for i := 0; i < 500; i++ {
		right.MustAppendRow(storage.Int(int64(i)), storage.Str(fmt.Sprintf("d%d", i)))
	}
	db.Put(left)
	db.Put(right)
	q := "SELECT d.label, COUNT(*) FROM facts f JOIN dims d ON f.k = d.k WHERE f.v > 50 GROUP BY d.label"
	for _, naive := range []bool{false, true} {
		b.Run(fmt.Sprintf("naive=%v", naive), func(b *testing.B) {
			eng := sqldb.NewEngine(db)
			eng.DisableOptimizations = naive
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Query(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSQLParse(b *testing.B) {
	q := "SELECT d.dname, COUNT(*) AS n FROM employees e JOIN departments d ON e.dept_id = d.id WHERE e.salary > 50 GROUP BY d.dname ORDER BY n DESC LIMIT 5"
	for i := 0; i < b.N; i++ {
		if _, err := sqldb.Parse(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSeasonalityDetection(b *testing.B) {
	xs := workload.BarometerSeries(workload.DefaultBarometerParams())
	for i := 0; i < b.N; i++ {
		if _, err := timeseries.DetectSeasonality(xs, 24); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKGInference(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st := kg.NewStore()
		for c := 0; c < 50; c++ {
			st.Add(kg.Triple{S: fmt.Sprintf("c%d", c), P: kg.PredSubClassOf, O: fmt.Sprintf("c%d", c+1)})
			st.Add(kg.Triple{S: fmt.Sprintf("x%d", c), P: kg.PredType, O: fmt.Sprintf("c%d", c)})
		}
		b.StartTimer()
		st.Infer()
	}
}

func BenchmarkGroundingPass(b *testing.B) {
	d := workload.NewSwissDomain(1)
	g := ground.NewGrounder(d.KG, d.DB, d.Vocab)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Ground("overview of the working force in Zurich")
	}
}

func BenchmarkTranslateFullPipeline(b *testing.B) {
	w := workload.GenNL2SQL(20, 0.3, 9)
	grounder := ground.NewGrounder(nil, w.DB, w.Vocab)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := nl2sql.NewTranslator(w.DB, grounder, int64(i))
		tr.Channel = nlmodel.Channel{HallucinationRate: 0.1, Fabrications: w.Fabrications}
		if _, err := tr.Translate(w.Pairs[i%len(w.Pairs)].Question); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCoreRespondEndToEnd(b *testing.B) {
	d := workload.NewSwissDomain(1)
	sys := core.New(core.Config{DB: d.DB, Catalog: d.Catalog, KG: d.KG, Vocab: d.Vocab, Documents: d.Documents, Now: d.Now, Seed: 1})
	turns := workload.Figure1Turns()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess := sys.NewSession()
		for _, t := range turns {
			if _, err := sys.Respond(context.Background(), sess, t); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// Scorecard: the composite reliability report (heavier; runs E2–E7
// internals once per iteration).
func BenchmarkScorecard(b *testing.B) {
	var sys float64
	for i := 0; i < b.N; i++ {
		sc, err := experiments.RunScorecard(context.Background(), 5)
		if err != nil {
			b.Fatal(err)
		}
		sys = sc.System
	}
	b.ReportMetric(sys, "system-score")
}
