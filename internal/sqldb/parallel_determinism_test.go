package sqldb

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
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

// TestParallelExecutionMatchesSerial is the executor's determinism
// property test: for randomized workloads and several worker counts,
// the parallel engine returns byte-identical rows, provenance,
// Fingerprint, and Stats versus the serial engine.
func TestParallelExecutionMatchesSerial(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		db := genJoinDB(4000, 200, seed)
		serial := NewEngine(db)
		serial.Workers = 1
		for _, workers := range []int{2, 4, 8} {
			par := NewEngine(db)
			par.Workers = workers
			par.ParallelThreshold = 1 // force the parallel operators
			for _, q := range parallelPropQueries {
				want, err := serial.Query(q)
				if err != nil {
					t.Fatalf("serial %q: %v", q, err)
				}
				got, err := par.Query(q)
				if err != nil {
					t.Fatalf("parallel(%d) %q: %v", workers, q, err)
				}
				if want.Fingerprint() != got.Fingerprint() {
					t.Fatalf("workers=%d %q: fingerprints differ", workers, q)
				}
				if !reflect.DeepEqual(want.Rows, got.Rows) {
					t.Fatalf("workers=%d %q: row order differs", workers, q)
				}
				if !reflect.DeepEqual(want.Prov, got.Prov) {
					t.Fatalf("workers=%d %q: provenance differs", workers, q)
				}
				if want.Stats != got.Stats {
					t.Fatalf("workers=%d %q: stats %+v, want %+v", workers, q, got.Stats, want.Stats)
				}
			}
		}
	}
}

// TestParallelExecutionProvenanceOff checks the E4 baseline stays
// identical too: provenance disabled must be nil under both engines.
func TestParallelExecutionProvenanceOff(t *testing.T) {
	db := genJoinDB(2000, 100, 9)
	par := NewEngine(db)
	par.CaptureProvenance = false
	par.Workers = 4
	par.ParallelThreshold = 1
	res, err := par.Query("SELECT f.v FROM facts f JOIN dims d ON f.k = d.k WHERE f.v > 10")
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
// some row must surface the same error the serial scan reports.
func TestParallelExecutionErrorMatchesSerial(t *testing.T) {
	db := genJoinDB(3000, 50, 4)
	serial := NewEngine(db)
	serial.Workers = 1
	par := NewEngine(db)
	par.Workers = 8
	par.ParallelThreshold = 1
	const q = "SELECT * FROM facts WHERE grp + 1 > 0" // string + int fails in eval
	_, serr := serial.Query(q)
	_, perr := par.Query(q)
	if serr == nil || perr == nil {
		t.Fatalf("expected both engines to fail, got serial=%v parallel=%v", serr, perr)
	}
	if serr.Error() != perr.Error() {
		t.Fatalf("error diverged: serial %q, parallel %q", serr, perr)
	}
}

// TestVectorizedMatchesRowOracleAcrossWorkers runs the determinism
// query set through the row oracle and the vectorized engine across
// worker counts and both optimizer settings: every combination must
// agree on Rows, Prov, Stats, and Fingerprint bit-for-bit.
func TestVectorizedMatchesRowOracleAcrossWorkers(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		db := genJoinDB(4000, 200, seed)
		for _, disableOpt := range []bool{false, true} {
			oracle := NewEngine(db)
			oracle.Workers = 1
			oracle.DisableOptimizations = disableOpt
			for _, workers := range []int{1, 2, 8} {
				vec := NewEngine(db)
				vec.Workers = workers
				vec.ParallelThreshold = 1
				vec.DisableOptimizations = disableOpt
				for _, q := range parallelPropQueries {
					want, err := oracle.queryRow(q)
					if err != nil {
						t.Fatalf("oracle %q: %v", q, err)
					}
					got, err := vec.Query(q)
					if err != nil {
						t.Fatalf("vectorized(w=%d,noopt=%v) %q: %v", workers, disableOpt, q, err)
					}
					if want.Fingerprint() != got.Fingerprint() {
						t.Fatalf("w=%d noopt=%v %q: fingerprints differ", workers, disableOpt, q)
					}
					if !reflect.DeepEqual(want.Rows, got.Rows) {
						t.Fatalf("w=%d noopt=%v %q: rows differ", workers, disableOpt, q)
					}
					if !reflect.DeepEqual(want.Prov, got.Prov) {
						t.Fatalf("w=%d noopt=%v %q: provenance differs", workers, disableOpt, q)
					}
					if want.Stats != got.Stats {
						t.Fatalf("w=%d noopt=%v %q: stats %+v, want %+v", workers, disableOpt, q, got.Stats, want.Stats)
					}
				}
			}
		}
	}
}

// TestVectorizedErrorMatchesRowOracle: evaluation errors in scans,
// projections, and aggregates must surface with identical text and
// identical first-error selection under both engines.
func TestVectorizedErrorMatchesRowOracle(t *testing.T) {
	db := genJoinDB(3000, 50, 4)
	oracle := NewEngine(db)
	vec := NewEngine(db)
	vec.Workers = 8
	vec.ParallelThreshold = 1
	for _, q := range []string{
		"SELECT * FROM facts WHERE grp + 1 > 0",                                  // filter eval error
		"SELECT v + grp FROM facts",                                              // projection eval error
		"SELECT SUM(grp) FROM facts",                                             // aggregate over strings
		"SELECT nosuch FROM facts",                                               // unknown column
		"SELECT f.v FROM facts f JOIN dims d ON f.k = d.k WHERE d.label - 1 > 0", // residual eval error
	} {
		_, oerr := oracle.queryRow(q)
		_, verr := vec.Query(q)
		if oerr == nil || verr == nil {
			t.Fatalf("%q: expected both engines to fail, oracle=%v vectorized=%v", q, oerr, verr)
		}
		if oerr.Error() != verr.Error() {
			t.Fatalf("%q: error diverged oracle %q vectorized %q", q, oerr, verr)
		}
	}
}
