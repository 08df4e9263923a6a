package sqldb

// bench_test.go holds the executor micro-benchmarks cdaload cannot
// isolate, all over genJoinDB's facts/dims fixture:
//
//   - BenchmarkVectorized{FilterScan,HashJoinAgg,GroupAgg}: each
//     statement through engine=row (executeRow, the test-only
//     differential oracle) and engine=vec (Engine.Execute), so
//     `go test -bench='^BenchmarkVectorized'` reads as a
//     row-vs-columnar table. The three statements are also
//     differential cases (parallelPropQueries), which is what makes
//     the two columns comparable: Rows, Prov, Stats and Fingerprint
//     are asserted identical there; these benches measure only speed.
//   - BenchmarkParallelSQLFilterScan: the columnar filter scan, the
//     one operator that fans out. It takes its width from GOMAXPROCS,
//     so `-cpu 1,2,4` is the sweep it is judged on, and -cpu 1 is the
//     serial path.

import "testing"

const (
	benchFilterScan  = "SELECT * FROM facts WHERE v > 75 AND grp = 'g3'"
	benchHashJoinAgg = "SELECT d.label, AVG(f.v) FROM facts f JOIN dims d ON f.k = d.k GROUP BY d.label ORDER BY d.label"
	benchGroupAgg    = "SELECT grp, COUNT(*), AVG(v), MIN(v), MAX(v) FROM facts WHERE k < 200 GROUP BY grp ORDER BY grp"
)

// benchRowVsVec runs one statement through both executors, handing
// every result to check.
func benchRowVsVec(b *testing.B, sql string, check func(b *testing.B, res *Result)) {
	e := NewEngine(genJoinDB(120000, 300, 1))
	for _, engine := range []struct {
		name string
		run  func(string) (*Result, error)
	}{{"engine=row", e.queryRow}, {"engine=vec", e.Query}} {
		b.Run(engine.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := engine.run(sql)
				if err != nil {
					b.Fatal(err)
				}
				check(b, res)
			}
		})
	}
}

func nonEmpty(b *testing.B, res *Result) {
	if len(res.Rows) == 0 {
		b.Fatal("empty result; fixture broken")
	}
}

func oneHashJoin(b *testing.B, res *Result) {
	if res.Stats.HashJoins != 1 {
		b.Fatalf("expected a hash join, stats = %+v", res.Stats)
	}
}

func BenchmarkVectorizedFilterScan(b *testing.B)  { benchRowVsVec(b, benchFilterScan, nonEmpty) }
func BenchmarkVectorizedHashJoinAgg(b *testing.B) { benchRowVsVec(b, benchHashJoinAgg, oneHashJoin) }
func BenchmarkVectorizedGroupAgg(b *testing.B)    { benchRowVsVec(b, benchGroupAgg, nonEmpty) }

func BenchmarkParallelSQLFilterScan(b *testing.B) {
	e := NewEngine(genJoinDB(150000, 200, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := e.Query(benchFilterScan)
		if err != nil {
			b.Fatal(err)
		}
		nonEmpty(b, res)
	}
}
