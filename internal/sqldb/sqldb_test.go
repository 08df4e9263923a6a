package sqldb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"github.com/reliable-cda/cda/internal/storage"
)

func testDB(t testing.TB) *storage.Database {
	t.Helper()
	db := storage.NewDatabase("hr")
	emp := storage.NewTable("employees", storage.Schema{
		{Name: "id", Kind: storage.KindInt},
		{Name: "name", Kind: storage.KindString},
		{Name: "dept_id", Kind: storage.KindInt},
		{Name: "salary", Kind: storage.KindFloat},
		{Name: "senior", Kind: storage.KindBool},
	})
	emp.MustAppendRow(storage.Int(1), storage.Str("Ada"), storage.Int(10), storage.Float(120), storage.Bool(true))
	emp.MustAppendRow(storage.Int(2), storage.Str("Bob"), storage.Int(10), storage.Float(90), storage.Bool(false))
	emp.MustAppendRow(storage.Int(3), storage.Str("Cleo"), storage.Int(20), storage.Float(100), storage.Bool(true))
	emp.MustAppendRow(storage.Int(4), storage.Str("Dan"), storage.Int(20), storage.Float(80), storage.Bool(false))
	emp.MustAppendRow(storage.Int(5), storage.Str("Eve"), storage.Int(30), storage.Null(), storage.Bool(false))
	db.Put(emp)

	dept := storage.NewTable("departments", storage.Schema{
		{Name: "id", Kind: storage.KindInt},
		{Name: "dname", Kind: storage.KindString},
	})
	dept.MustAppendRow(storage.Int(10), storage.Str("Engineering"))
	dept.MustAppendRow(storage.Int(20), storage.Str("Sales"))
	dept.MustAppendRow(storage.Int(30), storage.Str("HR"))
	db.Put(dept)
	return db
}

func mustQuery(t testing.TB, e *Engine, sql string) *Result {
	t.Helper()
	res, err := e.Query(sql)
	if err != nil {
		t.Fatalf("query %q: %v", sql, err)
	}
	return res
}

func TestLexBasics(t *testing.T) {
	toks, err := Lex("SELECT a, 'it''s' FROM t WHERE x >= 1.5e2")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []TokenType
	var texts []string
	for _, tk := range toks {
		kinds = append(kinds, tk.Type)
		texts = append(texts, tk.Text)
	}
	want := []string{"SELECT", "a", ",", "it's", "FROM", "t", "WHERE", "x", ">=", "1.5e2", ""}
	if len(texts) != len(want) {
		t.Fatalf("tokens = %v", texts)
	}
	for i := range want {
		if texts[i] != want[i] {
			t.Errorf("token[%d] = %q, want %q", i, texts[i], want[i])
		}
	}
	if kinds[3] != TokString {
		t.Error("escaped string not lexed as string")
	}
}

func TestLexErrors(t *testing.T) {
	if _, err := Lex("SELECT 'unterminated"); err == nil {
		t.Error("unterminated string must error")
	}
	if _, err := Lex("SELECT @"); err == nil {
		t.Error("bad character must error")
	}
}

func TestParseRenderRoundTrip(t *testing.T) {
	queries := []string{
		"SELECT * FROM employees",
		"SELECT name, salary FROM employees WHERE (salary > 85) ORDER BY salary DESC LIMIT 2",
		"SELECT DISTINCT dept_id FROM employees",
		"SELECT dept_id, COUNT(*) AS n FROM employees GROUP BY dept_id HAVING (COUNT(*) > 1)",
		"SELECT e.name, d.dname FROM employees e JOIN departments d ON (e.dept_id = d.id)",
		"SELECT name FROM employees WHERE (name LIKE 'A%')",
		"SELECT name FROM employees WHERE (dept_id IN (10, 20))",
		"SELECT name FROM employees WHERE (salary BETWEEN 80 AND 100)",
		"SELECT name FROM employees WHERE (salary IS NULL)",
	}
	for _, q := range queries {
		stmt, err := Parse(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		// Render must re-parse to an identical render (fixpoint).
		r1 := stmt.Render()
		stmt2, err := Parse(r1)
		if err != nil {
			t.Fatalf("re-parse %q: %v", r1, err)
		}
		if r2 := stmt2.Render(); r1 != r2 {
			t.Errorf("render not a fixpoint:\n  %s\n  %s", r1, r2)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"FROM employees",
		"SELECT FROM employees",
		"SELECT * employees",
		"SELECT * FROM",
		"SELECT * FROM t WHERE",
		"SELECT * FROM t LIMIT x",
		"SELECT * FROM t LIMIT -1",
		"SELECT SUM(*) FROM t",
		"SELECT a FROM t GROUP",
		"SELECT * FROM t ORDER salary",
		"SELECT * FROM t trailing garbage here",
		"SELECT a FROM t WHERE a IN 1",
		"SELECT a FROM t JOIN",
		"SELECT a FROM t JOIN u",
		"SELECT a.b.c FROM t",
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("Parse(%q) should fail", q)
		}
	}
}

func TestSelectStar(t *testing.T) {
	e := NewEngine(testDB(t))
	res := mustQuery(t, e, "SELECT * FROM employees")
	if len(res.Rows) != 5 || len(res.Columns) != 5 {
		t.Fatalf("shape = %dx%d", len(res.Rows), len(res.Columns))
	}
	if res.Columns[1] != "name" {
		t.Errorf("columns = %v", res.Columns)
	}
	// Row provenance: each output row traces to exactly its base row.
	for i, p := range res.Prov {
		if len(p) != 1 || p[0].Table != "employees" || p[0].Row != i {
			t.Errorf("prov[%d] = %v", i, p)
		}
	}
}

func TestWhereFilter(t *testing.T) {
	e := NewEngine(testDB(t))
	res := mustQuery(t, e, "SELECT name FROM employees WHERE salary > 85 AND senior = TRUE")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	got := []string{res.Rows[0][0].S, res.Rows[1][0].S}
	if got[0] != "Ada" || got[1] != "Cleo" {
		t.Errorf("names = %v", got)
	}
}

func TestWhereNullSemantics(t *testing.T) {
	e := NewEngine(testDB(t))
	// Eve has NULL salary: excluded by both predicates and their negation.
	r1 := mustQuery(t, e, "SELECT name FROM employees WHERE salary > 0")
	r2 := mustQuery(t, e, "SELECT name FROM employees WHERE NOT (salary > 0)")
	if len(r1.Rows)+len(r2.Rows) != 4 {
		t.Errorf("NULL row leaked into %d+%d rows", len(r1.Rows), len(r2.Rows))
	}
	r3 := mustQuery(t, e, "SELECT name FROM employees WHERE salary IS NULL")
	if len(r3.Rows) != 1 || r3.Rows[0][0].S != "Eve" {
		t.Errorf("IS NULL = %v", r3.Rows)
	}
}

func TestArithmeticAndAliases(t *testing.T) {
	e := NewEngine(testDB(t))
	res := mustQuery(t, e, "SELECT name, salary * 2 AS double_pay FROM employees WHERE id = 1")
	if res.Columns[1] != "double_pay" {
		t.Errorf("columns = %v", res.Columns)
	}
	if res.Rows[0][1].F != 240 {
		t.Errorf("double_pay = %v", res.Rows[0][1])
	}
}

func TestIntegerDivisionPromotes(t *testing.T) {
	e := NewEngine(testDB(t))
	res := mustQuery(t, e, "SELECT id / 2 FROM employees WHERE id = 3")
	if res.Rows[0][0].Kind != storage.KindFloat || res.Rows[0][0].F != 1.5 {
		t.Errorf("3/2 = %v", res.Rows[0][0])
	}
}

func TestDivisionByZero(t *testing.T) {
	e := NewEngine(testDB(t))
	if _, err := e.Query("SELECT salary / 0 FROM employees"); err == nil {
		t.Error("division by zero must error")
	}
	if _, err := e.Query("SELECT id % 0 FROM employees"); err == nil {
		t.Error("modulo by zero must error")
	}
}

func TestOrderByAndLimit(t *testing.T) {
	e := NewEngine(testDB(t))
	res := mustQuery(t, e, "SELECT name, salary FROM employees WHERE salary IS NOT NULL ORDER BY salary DESC LIMIT 2")
	if len(res.Rows) != 2 || res.Rows[0][0].S != "Ada" || res.Rows[1][0].S != "Cleo" {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestOrderByAlias(t *testing.T) {
	e := NewEngine(testDB(t))
	res := mustQuery(t, e, "SELECT name, salary * -1 AS neg FROM employees WHERE salary IS NOT NULL ORDER BY neg")
	if res.Rows[0][0].S != "Ada" {
		t.Errorf("order-by-alias first row = %v", res.Rows[0])
	}
}

func TestOrderByMultipleKeys(t *testing.T) {
	e := NewEngine(testDB(t))
	res := mustQuery(t, e, "SELECT dept_id, name FROM employees ORDER BY dept_id ASC, name DESC")
	if res.Rows[0][1].S != "Bob" || res.Rows[1][1].S != "Ada" {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestDistinct(t *testing.T) {
	e := NewEngine(testDB(t))
	res := mustQuery(t, e, "SELECT DISTINCT dept_id FROM employees ORDER BY dept_id")
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}
	// Provenance of the merged dept 10 row covers both employees.
	if len(res.Prov[0]) != 2 {
		t.Errorf("merged provenance = %v", res.Prov[0])
	}
}

func TestAggregatesNoGroup(t *testing.T) {
	e := NewEngine(testDB(t))
	res := mustQuery(t, e, "SELECT COUNT(*), COUNT(salary), SUM(salary), AVG(salary), MIN(salary), MAX(salary) FROM employees")
	row := res.Rows[0]
	if row[0].I != 5 || row[1].I != 4 {
		t.Errorf("counts = %v %v", row[0], row[1])
	}
	if row[2].F != 390 || row[3].F != 97.5 || row[4].F != 80 || row[5].F != 120 {
		t.Errorf("aggs = %v", row)
	}
	// Group provenance covers all five base rows.
	if len(res.Prov[0]) != 5 {
		t.Errorf("agg provenance = %v", res.Prov[0])
	}
}

func TestGroupByHaving(t *testing.T) {
	e := NewEngine(testDB(t))
	res := mustQuery(t, e, "SELECT dept_id, COUNT(*) AS n, AVG(salary) AS pay FROM employees GROUP BY dept_id HAVING COUNT(*) > 1 ORDER BY dept_id")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][0].I != 10 || res.Rows[0][1].I != 2 || res.Rows[0][2].F != 105 {
		t.Errorf("group 10 = %v", res.Rows[0])
	}
	if res.Rows[1][0].I != 20 || res.Rows[1][2].F != 90 {
		t.Errorf("group 20 = %v", res.Rows[1])
	}
}

func TestGroupValidation(t *testing.T) {
	e := NewEngine(testDB(t))
	if _, err := e.Query("SELECT name, COUNT(*) FROM employees GROUP BY dept_id"); err == nil {
		t.Error("non-grouped column must be rejected")
	}
	if _, err := e.Query("SELECT COUNT(*) FROM employees WHERE COUNT(*) > 1"); err == nil {
		t.Error("aggregate in WHERE must be rejected")
	}
	if _, err := e.Query("SELECT * FROM employees GROUP BY dept_id"); err == nil {
		t.Error("SELECT * with GROUP BY must be rejected")
	}
}

func TestAggregateExpression(t *testing.T) {
	e := NewEngine(testDB(t))
	res := mustQuery(t, e, "SELECT SUM(salary) / COUNT(salary) FROM employees")
	if res.Rows[0][0].F != 97.5 {
		t.Errorf("sum/count = %v", res.Rows[0][0])
	}
}

func TestCountDistinct(t *testing.T) {
	e := NewEngine(testDB(t))
	res := mustQuery(t, e, "SELECT COUNT(DISTINCT dept_id) FROM employees")
	if res.Rows[0][0].I != 3 {
		t.Errorf("count distinct = %v", res.Rows[0][0])
	}
}

func TestJoin(t *testing.T) {
	e := NewEngine(testDB(t))
	res := mustQuery(t, e, "SELECT e.name, d.dname FROM employees e JOIN departments d ON e.dept_id = d.id WHERE d.dname = 'Engineering' ORDER BY e.name")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][0].S != "Ada" || res.Rows[0][1].S != "Engineering" {
		t.Errorf("row = %v", res.Rows[0])
	}
	// Join provenance: one ref per joined table.
	for _, p := range res.Prov {
		tables := map[string]bool{}
		for _, r := range p {
			tables[r.Table] = true
		}
		if !tables["employees"] || !tables["departments"] {
			t.Errorf("join provenance = %v", p)
		}
	}
}

func TestJoinGroupBy(t *testing.T) {
	e := NewEngine(testDB(t))
	res := mustQuery(t, e, "SELECT d.dname, COUNT(*) AS n FROM employees e JOIN departments d ON e.dept_id = d.id GROUP BY d.dname ORDER BY d.dname")
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][0].S != "Engineering" || res.Rows[0][1].I != 2 {
		t.Errorf("row = %v", res.Rows[0])
	}
}

func TestLike(t *testing.T) {
	e := NewEngine(testDB(t))
	res := mustQuery(t, e, "SELECT name FROM employees WHERE name LIKE '%e%' ORDER BY name")
	// Cleo, Eve (case-insensitive; Ada has no e... Cleo yes, Eve yes).
	if len(res.Rows) != 2 || res.Rows[0][0].S != "Cleo" || res.Rows[1][0].S != "Eve" {
		t.Errorf("rows = %v", res.Rows)
	}
	res = mustQuery(t, e, "SELECT name FROM employees WHERE name LIKE '_ob'")
	if len(res.Rows) != 1 || res.Rows[0][0].S != "Bob" {
		t.Errorf("underscore match = %v", res.Rows)
	}
	res = mustQuery(t, e, "SELECT name FROM employees WHERE name NOT LIKE '%a%'")
	// Not containing a/A: Bob, Cleo, Eve.
	if len(res.Rows) != 3 {
		t.Errorf("not-like rows = %v", res.Rows)
	}
}

func TestInAndBetween(t *testing.T) {
	e := NewEngine(testDB(t))
	res := mustQuery(t, e, "SELECT name FROM employees WHERE dept_id IN (10, 30) ORDER BY name")
	if len(res.Rows) != 3 {
		t.Errorf("in rows = %v", res.Rows)
	}
	res = mustQuery(t, e, "SELECT name FROM employees WHERE dept_id NOT IN (10, 30) ORDER BY name")
	if len(res.Rows) != 2 {
		t.Errorf("not-in rows = %v", res.Rows)
	}
	res = mustQuery(t, e, "SELECT name FROM employees WHERE salary BETWEEN 90 AND 110 ORDER BY name")
	if len(res.Rows) != 2 {
		t.Errorf("between rows = %v", res.Rows)
	}
	res = mustQuery(t, e, "SELECT name FROM employees WHERE salary NOT BETWEEN 90 AND 110")
	if len(res.Rows) != 2 { // Ada 120, Dan 80 (Eve NULL excluded)
		t.Errorf("not-between rows = %v", res.Rows)
	}
}

func TestAmbiguousColumn(t *testing.T) {
	e := NewEngine(testDB(t))
	if _, err := e.Query("SELECT id FROM employees e JOIN departments d ON e.dept_id = d.id"); err == nil {
		t.Error("ambiguous id must error")
	}
}

func TestUnknownTableAndColumn(t *testing.T) {
	e := NewEngine(testDB(t))
	if _, err := e.Query("SELECT * FROM missing"); err == nil {
		t.Error("unknown table must error")
	}
	if _, err := e.Query("SELECT missing FROM employees"); err == nil {
		t.Error("unknown column must error")
	}
}

func TestStringConcat(t *testing.T) {
	e := NewEngine(testDB(t))
	res := mustQuery(t, e, "SELECT name + '!' FROM employees WHERE id = 1")
	if res.Rows[0][0].S != "Ada!" {
		t.Errorf("concat = %v", res.Rows[0][0])
	}
}

// TestAppendKeyedIsLengthThenText: appendKeyed writes a value's text in
// place behind its uvarint length, moving it up for a length that needs
// more than one byte; either way the bytes are the length, then the text.
func TestAppendKeyedIsLengthThenText(t *testing.T) {
	for _, n := range []int{0, 1, 120, 121, 122, 127, 128, 300, 20000} {
		v := storage.Str(strings.Repeat("é", n/2) + strings.Repeat("x", n%2))
		text := appendValueKey(nil, v)
		want := append(binary.AppendUvarint([]byte("prefix"), uint64(len(text))), text...)
		if got := appendKeyed([]byte("prefix"), v); !bytes.Equal(got, want) {
			t.Fatalf("text of %d bytes: got %q, want %q", len(text), got, want)
		}
	}
}

func TestFingerprintOrderInsensitive(t *testing.T) {
	e := NewEngine(testDB(t))
	a := mustQuery(t, e, "SELECT name FROM employees ORDER BY name")
	b := mustQuery(t, e, "SELECT name FROM employees ORDER BY salary")
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("fingerprint must ignore row order")
	}
	c := mustQuery(t, e, "SELECT name FROM employees WHERE id > 1")
	if a.Fingerprint() == c.Fingerprint() {
		t.Error("different result sets must differ")
	}

	// Multisets of rows, compared directly: equal when they hold the
	// same rows as often, whatever a TEXT value holds.
	s, i := storage.Str, storage.Int
	rows := func(rs ...[]storage.Value) *Result { return &Result{Rows: rs} }
	row := func(vs ...storage.Value) []storage.Value { return vs }
	for _, c := range []struct {
		name  string
		a, b  *Result
		equal bool
	}{
		{"a unit separator in a value", rows(row(s("a\x1fINT:1"))), rows(row(s("a"), i(1))), false},
		{"a record separator in a value", rows(row(s("x\x1eTEXT:y"))), rows(row(s("x")), row(s("y"))), false},
		{"a row twice, another once", rows(row(i(1)), row(i(1)), row(i(2))), rows(row(i(1)), row(i(2)), row(i(2))), false},
		{"a row twice or once", rows(row(i(1)), row(i(1))), rows(row(i(1))), false},
		{"an empty row or none", rows(row()), rows(), false},
		{"one kind or another", rows(row(s("1"))), rows(row(i(1))), false},
		{"duplicates in another order", rows(row(i(2)), row(i(1)), row(i(2))), rows(row(i(2)), row(i(2)), row(i(1))), true},
	} {
		if got := c.a.Fingerprint() == c.b.Fingerprint(); got != c.equal {
			t.Errorf("%s: fingerprints equal = %v, want %v", c.name, got, c.equal)
		}
	}
}

func TestProvenanceToggle(t *testing.T) {
	e := NewEngine(testDB(t))
	e.CaptureProvenance = false
	res := mustQuery(t, e, "SELECT name FROM employees WHERE salary > 85")
	if res.Prov != nil {
		t.Error("provenance captured while disabled")
	}
}

func TestStatsCounters(t *testing.T) {
	q := "SELECT e.name FROM employees e JOIN departments d ON e.dept_id = d.id"
	e := NewEngine(testDB(t))
	res := mustQuery(t, e, q)
	if res.Stats.RowsScanned != 8 { // 5 + 3
		t.Errorf("scanned = %d", res.Stats.RowsScanned)
	}
	// The hash join only examines the 5 candidate matches.
	if res.Stats.RowsJoined != 5 || res.Stats.HashJoins != 1 {
		t.Errorf("joined = %d hashJoins = %d", res.Stats.RowsJoined, res.Stats.HashJoins)
	}
	if res.Stats.RowsOutput != 5 {
		t.Errorf("output = %d", res.Stats.RowsOutput)
	}
	// The naive plan examines the full cross product.
	naive := NewEngine(testDB(t))
	naive.DisableOptimizations = true
	res = mustQuery(t, naive, q)
	if res.Stats.RowsJoined != 15 || res.Stats.HashJoins != 0 {
		t.Errorf("naive joined = %d hashJoins = %d", res.Stats.RowsJoined, res.Stats.HashJoins)
	}
}

func TestLimitZero(t *testing.T) {
	e := NewEngine(testDB(t))
	res := mustQuery(t, e, "SELECT name FROM employees LIMIT 0")
	if len(res.Rows) != 0 {
		t.Errorf("limit 0 rows = %v", res.Rows)
	}
}

func TestLeftJoinWarning(t *testing.T) {
	stmt, err := Parse("SELECT e.name FROM employees e LEFT JOIN departments d ON e.dept_id = d.id")
	if err != nil {
		t.Fatal(err)
	}
	if len(stmt.Warnings) != 1 {
		t.Errorf("warnings = %v", stmt.Warnings)
	}
}

func TestLikeMatchTable(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%o", true},
		{"hello", "%ell%", true},
		{"hello", "h_llo", true},
		{"hello", "h_lo", false},
		{"hello", "", false},
		{"", "%", true},
		{"", "", true},
		{"abc", "%%", true},
		{"HELLO", "hello", true},
		{"ab", "a%b", true},
		{"ab", "_", false},
	}
	for _, c := range cases {
		if got := likeMatch(c.s, c.p); got != c.want {
			t.Errorf("likeMatch(%q,%q) = %v, want %v", c.s, c.p, got, c.want)
		}
	}
}

// Property: LIKE with pattern == literal string (no wildcards) behaves
// as case-insensitive equality.
func TestLikeLiteralProperty(t *testing.T) {
	f := func(s string) bool {
		if strings.ContainsAny(s, "%_") {
			return true
		}
		return likeMatch(s, s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: every result row's provenance is non-empty and references
// only existing base rows, for a family of generated filters.
func TestProvenanceSoundProperty(t *testing.T) {
	db := testDB(t)
	e := NewEngine(db)
	f := func(threshold uint8) bool {
		q := "SELECT name FROM employees WHERE id > " + storage.Int(int64(threshold%6)).String()
		res, err := e.Query(q)
		if err != nil {
			return false
		}
		emp, _ := db.Get("employees")
		for _, p := range res.Prov {
			if len(p) == 0 {
				return false
			}
			for _, r := range p {
				if r.Table != "employees" || r.Row < 0 || r.Row >= emp.NumRows() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: COUNT(*) equals the number of rows SELECT * returns under
// the same WHERE clause.
func TestCountMatchesRowsProperty(t *testing.T) {
	e := NewEngine(testDB(t))
	f := func(th uint8) bool {
		cond := " WHERE salary > " + storage.Int(int64(th)).String()
		all, err := e.Query("SELECT * FROM employees" + cond)
		if err != nil {
			return false
		}
		cnt, err := e.Query("SELECT COUNT(*) FROM employees" + cond)
		if err != nil {
			return false
		}
		return cnt.Rows[0][0].I == int64(len(all.Rows))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// groupScopeQueries pin how HAVING, select items and ORDER BY keys
// evaluate over a group: every operand of a node is evaluated before
// the node, so AND does not short-circuit there (unlike WHERE), the
// first operand's error wins, a bare column of an empty group reads
// NULL, and expressions over aggregates evaluate as they would over
// literals. want is the rows, or "error: " and the error's text.
var groupScopeQueries = []struct{ sql, want string }{
	{"SELECT dept_id FROM employees GROUP BY dept_id HAVING 1 = 0 AND SUM(name) > 0",
		"error: sql: SUM over non-numeric value TEXT"},
	{"SELECT dept_id FROM employees GROUP BY dept_id HAVING dept_id IN (10, SUM(name))",
		"error: sql: SUM over non-numeric value TEXT"},
	{"SELECT dept_id FROM employees GROUP BY dept_id HAVING MAX(name) > 3 AND SUM(name) > 0",
		"error: storage: cannot compare TEXT with INT"},
	{"SELECT COUNT(*) FROM employees WHERE 1 = 0 HAVING name IS NULL", "[[0]]"},
	{"SELECT dept_id, -SUM(salary) AS neg FROM employees GROUP BY dept_id HAVING AVG(salary) BETWEEN 85 AND 110 ORDER BY neg",
		"[[10 -210] [20 -180]]"},
	{"SELECT dept_id, COALESCE(SUM(salary), 0) FROM employees GROUP BY dept_id ORDER BY dept_id",
		"[[10 210] [20 180] [30 0]]"},
}

// TestGroupScopeEvaluation runs groupScopeQueries through both engines.
func TestGroupScopeEvaluation(t *testing.T) {
	e := NewEngine(testDB(t))
	for _, tc := range groupScopeQueries {
		for _, engine := range []struct {
			name string
			run  func(string) (*Result, error)
		}{{"vectorized", e.Query}, {"row oracle", e.queryRow}} {
			got := ""
			if res, err := engine.run(tc.sql); err != nil {
				got = "error: " + err.Error()
			} else {
				got = fmt.Sprint(res.Rows)
			}
			if got != tc.want {
				t.Errorf("%s: %q = %s, want %s", engine.name, tc.sql, got, tc.want)
			}
		}
	}
}
