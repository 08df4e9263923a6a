package sqldb

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"github.com/reliable-cda/cda/internal/storage"
)

// optimizerQueries is the cross-check workload: every query must
// produce identical result multisets under the optimized and naive
// plans.
var optimizerQueries = []string{
	"SELECT e.name, d.dname FROM employees e JOIN departments d ON e.dept_id = d.id",
	"SELECT e.name FROM employees e JOIN departments d ON e.dept_id = d.id WHERE d.dname = 'Engineering'",
	"SELECT e.name FROM employees e JOIN departments d ON e.dept_id = d.id WHERE e.salary > 85 AND d.dname != 'HR'",
	"SELECT d.dname, COUNT(*) FROM employees e JOIN departments d ON e.dept_id = d.id GROUP BY d.dname",
	"SELECT e.name FROM employees e JOIN departments d ON e.dept_id = d.id AND e.salary > 90",
	"SELECT e.name FROM employees e JOIN departments d ON e.dept_id < d.id", // non-equi: nested loop
	"SELECT name FROM employees WHERE salary > 85",
	"SELECT e1.name, e2.name FROM employees e1 JOIN employees e2 ON e1.dept_id = e2.dept_id WHERE e1.id < e2.id",
}

func TestOptimizedMatchesNaive(t *testing.T) {
	db := testDB(t)
	opt := NewEngine(db)
	naive := NewEngine(db)
	naive.DisableOptimizations = true
	for _, q := range optimizerQueries {
		a, err := opt.Query(q)
		if err != nil {
			t.Fatalf("optimized %q: %v", q, err)
		}
		b, err := naive.Query(q)
		if err != nil {
			t.Fatalf("naive %q: %v", q, err)
		}
		if a.Fingerprint() != b.Fingerprint() {
			t.Errorf("plans disagree on %q:\n opt  %d rows\n naive %d rows", q, len(a.Rows), len(b.Rows))
		}
	}
}

func TestPredicatePushdownCounts(t *testing.T) {
	db := testDB(t)
	e := NewEngine(db)
	res := mustQuery(t, e,
		"SELECT e.name FROM employees e JOIN departments d ON e.dept_id = d.id WHERE e.salary > 85 AND d.dname != 'HR'")
	if res.Stats.PushedPredicates != 2 {
		t.Errorf("pushed = %d", res.Stats.PushedPredicates)
	}
	// Without joins, nothing is pushed (the final filter is the scan
	// filter already).
	res = mustQuery(t, e, "SELECT name FROM employees WHERE salary > 85")
	if res.Stats.PushedPredicates != 0 {
		t.Errorf("no-join pushed = %d", res.Stats.PushedPredicates)
	}
}

func TestHashJoinCrossTypeKeys(t *testing.T) {
	db := storage.NewDatabase("x")
	a := storage.NewTable("a", storage.Schema{{Name: "k", Kind: storage.KindInt}})
	a.MustAppendRow(storage.Int(2))
	a.MustAppendRow(storage.Int(20))
	db.Put(a)
	b := storage.NewTable("b", storage.Schema{{Name: "k", Kind: storage.KindFloat}, {Name: "v", Kind: storage.KindString}})
	b.MustAppendRow(storage.Float(2.0), storage.Str("two"))
	b.MustAppendRow(storage.Float(20.0), storage.Str("twenty"))
	b.MustAppendRow(storage.Float(2.5), storage.Str("no"))
	db.Put(b)
	e := NewEngine(db)
	res := mustQuery(t, e, "SELECT a.k, b.v FROM a JOIN b ON a.k = b.k ORDER BY a.k")
	if len(res.Rows) != 2 || res.Rows[0][1].S != "two" || res.Rows[1][1].S != "twenty" {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestHashJoinNullKeysNeverMatch(t *testing.T) {
	db := storage.NewDatabase("x")
	a := storage.NewTable("a", storage.Schema{{Name: "k", Kind: storage.KindInt}})
	a.MustAppendRow(storage.Null())
	a.MustAppendRow(storage.Int(1))
	db.Put(a)
	b := storage.NewTable("b", storage.Schema{{Name: "k", Kind: storage.KindInt}})
	b.MustAppendRow(storage.Null())
	b.MustAppendRow(storage.Int(1))
	db.Put(b)
	e := NewEngine(db)
	res := mustQuery(t, e, "SELECT a.k FROM a JOIN b ON a.k = b.k")
	if len(res.Rows) != 1 {
		t.Errorf("NULL keys joined: %v", res.Rows)
	}
}

func TestConjunctsAndConjoin(t *testing.T) {
	stmt, err := Parse("SELECT a FROM t WHERE a > 1 AND b < 2 AND c = 3")
	if err != nil {
		t.Fatal(err)
	}
	parts := conjuncts(stmt.Where)
	if len(parts) != 3 {
		t.Fatalf("conjuncts = %d", len(parts))
	}
	rebuilt := conjoin(parts)
	if rebuilt.Render() != stmt.Where.Render() {
		t.Errorf("conjoin mismatch:\n%s\n%s", rebuilt.Render(), stmt.Where.Render())
	}
	if conjoin(nil) != nil {
		t.Error("empty conjoin must be nil")
	}
}

// Property: on randomly generated equi-join data, both plans agree.
func TestPlansAgreeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db := storage.NewDatabase("p")
		l := storage.NewTable("l", storage.Schema{
			{Name: "k", Kind: storage.KindInt}, {Name: "x", Kind: storage.KindInt},
		})
		r := storage.NewTable("r", storage.Schema{
			{Name: "k", Kind: storage.KindInt}, {Name: "y", Kind: storage.KindInt},
		})
		for i := 0; i < 30; i++ {
			l.MustAppendRow(storage.Int(int64(rng.Intn(6))), storage.Int(int64(rng.Intn(100))))
			r.MustAppendRow(storage.Int(int64(rng.Intn(6))), storage.Int(int64(rng.Intn(100))))
		}
		db.Put(l)
		db.Put(r)
		q := fmt.Sprintf("SELECT l.x, r.y FROM l JOIN r ON l.k = r.k WHERE l.x > %d", rng.Intn(80))
		opt := NewEngine(db)
		naive := NewEngine(db)
		naive.DisableOptimizations = true
		a, err1 := opt.Query(q)
		b, err2 := naive.Query(q)
		if err1 != nil || err2 != nil {
			return false
		}
		return a.Fingerprint() == b.Fingerprint()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: provenance row references survive the hash-join path
// identically to the naive path (as sets per matching output row
// count).
func TestHashJoinProvenance(t *testing.T) {
	db := testDB(t)
	e := NewEngine(db)
	res := mustQuery(t, e, "SELECT e.name, d.dname FROM employees e JOIN departments d ON e.dept_id = d.id")
	for i, p := range res.Prov {
		tables := map[string]bool{}
		for _, ref := range p {
			tables[ref.Table] = true
		}
		if !tables["employees"] || !tables["departments"] {
			t.Errorf("row %d provenance = %v", i, p)
		}
	}
}

func TestSQLErrorRendering(t *testing.T) {
	_, err := Parse("SELECT FROM t")
	if err == nil {
		t.Fatal("expected error")
	}
	msg := err.Error()
	if !strings.Contains(msg, "position") || !strings.Contains(msg, "near") {
		t.Errorf("error = %q", msg)
	}
	e2 := &SQLError{Pos: -1, Query: "q", Msg: "boom"}
	if e2.Error() != "sql: boom" {
		t.Errorf("positionless error = %q", e2.Error())
	}
}

func TestStarAndUnaryRender(t *testing.T) {
	if (&Star{}).Render() != "*" {
		t.Error("star render")
	}
	u := &UnaryExpr{Op: "-", Expr: &ColumnRef{Column: "x"}}
	if u.Render() != "(-x)" {
		t.Errorf("unary render = %q", u.Render())
	}
}
