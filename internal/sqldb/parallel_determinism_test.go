package sqldb

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"github.com/reliable-cda/cda/internal/storage"
)

// genJoinDB builds a randomized database: a fact table with numeric and
// string columns, a dimension table keyed by id, and sparse — a column
// of every kind with NULLs scattered across bitmap words, a column of
// every kind holding nothing but NULL, and a KindNull column. sparse
// draws from its own stream, so facts and dims are what they were
// before it existed (the benchmarks run over them).
func genJoinDB(rows, dims int, seed int64) *storage.Database {
	rng := rand.New(rand.NewSource(seed))
	db := storage.NewDatabase("par")
	facts := storage.NewTable("facts", storage.Schema{
		{Name: "k", Kind: storage.KindInt},
		{Name: "v", Kind: storage.KindFloat},
		{Name: "grp", Kind: storage.KindString},
	})
	for i := 0; i < rows; i++ {
		facts.MustAppendRow(
			storage.Int(int64(rng.Intn(dims))),
			storage.Float(rng.Float64()*100),
			storage.Str(fmt.Sprintf("g%d", rng.Intn(7))),
		)
	}
	dim := storage.NewTable("dims", storage.Schema{
		{Name: "k", Kind: storage.KindInt},
		{Name: "label", Kind: storage.KindString},
	})
	for i := 0; i < dims; i++ {
		dim.MustAppendRow(storage.Int(int64(i)), storage.Str(fmt.Sprintf("d%d", i%13)))
	}
	db.Put(facts)
	db.Put(dim)

	srng := rand.New(rand.NewSource(seed ^ 0x5eed))
	sparse := storage.NewTable("sparse", storage.Schema{
		{Name: "k", Kind: storage.KindInt},
		{Name: "x", Kind: storage.KindFloat},
		{Name: "s", Kind: storage.KindString},
		{Name: "b", Kind: storage.KindBool},
		{Name: "ni", Kind: storage.KindInt},
		{Name: "nf", Kind: storage.KindFloat},
		{Name: "ns", Kind: storage.KindString},
		{Name: "nb", Kind: storage.KindBool},
		{Name: "z", Kind: storage.KindNull},
	})
	for i := 0; i < dims+100; i++ {
		row := make([]storage.Value, 9)
		if srng.Intn(4) != 0 {
			row[0] = storage.Int(int64(srng.Intn(dims)))
		}
		switch srng.Intn(5) {
		case 0:
		case 1: // a whole number, to meet an INT key; sometimes -0
			row[1] = storage.Float(math.Copysign(float64(srng.Intn(4)), -1))
		default:
			row[1] = storage.Float(srng.Float64() * 100)
		}
		if srng.Intn(3) != 0 {
			row[2] = storage.Str(fmt.Sprintf("g%d", srng.Intn(7)))
		}
		if srng.Intn(3) != 0 {
			row[3] = storage.Bool(srng.Intn(2) == 0)
		}
		sparse.MustAppendRow(row...)
	}
	db.Put(sparse)
	return db
}

var parallelPropQueries = []string{
	"SELECT * FROM facts WHERE v > 50",
	"SELECT grp, COUNT(*) FROM facts WHERE v > 25 GROUP BY grp ORDER BY grp",
	"SELECT f.grp, d.label, COUNT(*) FROM facts f JOIN dims d ON f.k = d.k WHERE f.v > 30 GROUP BY f.grp, d.label ORDER BY f.grp, d.label",
	// The three statements bench_test.go times row against columnar.
	benchFilterScan,
	benchHashJoinAgg,
	benchGroupAgg,
	"SELECT DISTINCT grp FROM facts WHERE v < 90 ORDER BY grp",
	"SELECT f.v, d.label FROM facts f JOIN dims d ON f.k = d.k WHERE f.v > 80 AND d.label = 'd3' ORDER BY f.v DESC LIMIT 20",
}

// procWidths are the GOMAXPROCS values the determinism tests sweep:
// vFilter cuts a selection of filterSpanMin or more positions into that
// many spans, and 1 is the serial scan.
var procWidths = []int{1, 2, 4, 8}

// setProcs sets GOMAXPROCS for the rest of the test and restores the
// value it found when the test ends.
func setProcs(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestParallelExecutionMatchesSerial is the executor's determinism
// property test: for randomized workloads over a fact table above
// filterSpanMin, every GOMAXPROCS width returns byte-identical rows,
// provenance, Fingerprint, and Stats to the serial width.
func TestParallelExecutionMatchesSerial(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		e := NewEngine(genJoinDB(4000, 200, seed))
		setProcs(t, 1)
		want := make([]*Result, len(parallelPropQueries))
		for i, q := range parallelPropQueries {
			res, err := e.Query(q)
			if err != nil {
				t.Fatalf("serial %q: %v", q, err)
			}
			want[i] = res
		}
		for _, procs := range procWidths[1:] {
			setProcs(t, procs)
			for i, q := range parallelPropQueries {
				got, err := e.Query(q)
				if err != nil {
					t.Fatalf("procs=%d %q: %v", procs, q, err)
				}
				if want[i].Fingerprint() != got.Fingerprint() {
					t.Fatalf("procs=%d %q: fingerprints differ", procs, q)
				}
				if !reflect.DeepEqual(want[i].Rows, got.Rows) {
					t.Fatalf("procs=%d %q: row order differs", procs, q)
				}
				if !reflect.DeepEqual(want[i].Prov, got.Prov) {
					t.Fatalf("procs=%d %q: provenance differs", procs, q)
				}
				if want[i].Stats != got.Stats {
					t.Fatalf("procs=%d %q: stats %+v, want %+v", procs, q, got.Stats, want[i].Stats)
				}
			}
		}
	}
}

// TestParallelExecutionProvenanceOff checks the E4 baseline stays
// identical too: provenance disabled must be nil when the filter fans
// out.
func TestParallelExecutionProvenanceOff(t *testing.T) {
	setProcs(t, 4)
	e := NewEngine(genJoinDB(2000, 100, 9))
	e.CaptureProvenance = false
	res, err := e.Query("SELECT f.v FROM facts f JOIN dims d ON f.k = d.k WHERE f.v > 10")
	if err != nil {
		t.Fatal(err)
	}
	if res.Prov != nil {
		t.Fatalf("provenance captured despite CaptureProvenance=false")
	}
	if len(res.Rows) == 0 {
		t.Fatal("query returned no rows; fixture broken")
	}
}

// TestParallelExecutionErrorMatchesSerial: a predicate that fails on
// some row must surface the same error at every width.
func TestParallelExecutionErrorMatchesSerial(t *testing.T) {
	e := NewEngine(genJoinDB(3000, 50, 4))
	const q = "SELECT * FROM facts WHERE grp + 1 > 0" // string + int fails in eval
	setProcs(t, 1)
	_, serr := e.Query(q)
	if serr == nil {
		t.Fatal("expected the serial scan to fail")
	}
	for _, procs := range procWidths[1:] {
		setProcs(t, procs)
		if _, perr := e.Query(q); perr == nil || perr.Error() != serr.Error() {
			t.Fatalf("procs=%d: error %v, want %q", procs, perr, serr)
		}
	}
}

// TestVectorizedMatchesRowOracleAcrossWorkers runs the determinism
// query set through the row oracle and the vectorized engine at every
// GOMAXPROCS width and both optimizer settings: every combination must
// agree on Rows, Prov, Stats, and Fingerprint bit-for-bit.
func TestVectorizedMatchesRowOracleAcrossWorkers(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		db := genJoinDB(4000, 200, seed)
		for _, disableOpt := range []bool{false, true} {
			e := NewEngine(db)
			e.DisableOptimizations = disableOpt
			want := make([]*Result, len(parallelPropQueries))
			for i, q := range parallelPropQueries {
				res, err := e.queryRow(q)
				if err != nil {
					t.Fatalf("oracle %q: %v", q, err)
				}
				want[i] = res
			}
			for _, procs := range procWidths {
				setProcs(t, procs)
				for i, q := range parallelPropQueries {
					got, err := e.Query(q)
					if err != nil {
						t.Fatalf("vectorized(procs=%d,noopt=%v) %q: %v", procs, disableOpt, q, err)
					}
					if want[i].Fingerprint() != got.Fingerprint() {
						t.Fatalf("procs=%d noopt=%v %q: fingerprints differ", procs, disableOpt, q)
					}
					if !reflect.DeepEqual(want[i].Rows, got.Rows) {
						t.Fatalf("procs=%d noopt=%v %q: rows differ", procs, disableOpt, q)
					}
					if !reflect.DeepEqual(want[i].Prov, got.Prov) {
						t.Fatalf("procs=%d noopt=%v %q: provenance differs", procs, disableOpt, q)
					}
					if want[i].Stats != got.Stats {
						t.Fatalf("procs=%d noopt=%v %q: stats %+v, want %+v", procs, disableOpt, q, got.Stats, want[i].Stats)
					}
				}
			}
		}
	}
}

// TestVectorizedErrorMatchesRowOracle: evaluation errors in scans,
// projections, and aggregates must surface with identical text and
// identical first-error selection under both engines, at every
// GOMAXPROCS width.
func TestVectorizedErrorMatchesRowOracle(t *testing.T) {
	e := NewEngine(genJoinDB(3000, 50, 4))
	for _, q := range []string{
		"SELECT * FROM facts WHERE grp + 1 > 0",                                  // filter eval error
		"SELECT v + grp FROM facts",                                              // projection eval error
		"SELECT SUM(grp) FROM facts",                                             // aggregate over strings
		"SELECT nosuch FROM facts",                                               // unknown column
		"SELECT f.v FROM facts f JOIN dims d ON f.k = d.k WHERE d.label - 1 > 0", // residual eval error
	} {
		_, oerr := e.queryRow(q)
		if oerr == nil {
			t.Fatalf("%q: expected the oracle to fail", q)
		}
		for _, procs := range procWidths {
			setProcs(t, procs)
			if _, verr := e.Query(q); verr == nil || verr.Error() != oerr.Error() {
				t.Fatalf("procs=%d %q: vectorized error %v, oracle %q", procs, q, verr, oerr)
			}
		}
	}
}
