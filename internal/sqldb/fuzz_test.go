package sqldb

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"github.com/reliable-cda/cda/internal/storage"
)

// Property: the lexer and parser never panic — they return errors for
// malformed input. Random byte strings and mutated near-SQL both go
// through.
func TestParserNeverPanicsProperty(t *testing.T) {
	f := func(s string) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				t.Logf("panic on %q: %v", s, r)
				ok = false
			}
		}()
		_, _ = Parse(s)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: truncating a valid query at any byte offset never panics.
func TestParserTruncationProperty(t *testing.T) {
	q := "SELECT d.dname, COUNT(*) AS n FROM employees e JOIN departments d ON e.dept_id = d.id WHERE e.salary > 50 AND name LIKE 'A%' GROUP BY d.dname HAVING COUNT(*) > 1 ORDER BY n DESC LIMIT 5 OFFSET 1"
	for i := 0; i <= len(q); i++ {
		func(prefix string) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on prefix %q: %v", prefix, r)
				}
			}()
			_, _ = Parse(prefix)
		}(q[:i])
	}
}

// Property: executing any parseable mutation either errors cleanly or
// returns a well-formed result (len(Prov) == len(Rows) when captured).
func TestExecutorResultShapeProperty(t *testing.T) {
	db := testDB(t)
	e := NewEngine(db)
	queries := []string{
		"SELECT * FROM employees",
		"SELECT name FROM employees WHERE salary > 1",
		"SELECT dept_id, COUNT(*) FROM employees GROUP BY dept_id",
		"SELECT DISTINCT senior FROM employees ORDER BY senior",
	}
	for _, q := range queries {
		res, err := e.Query(q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		if res.Prov != nil && len(res.Prov) != len(res.Rows) {
			t.Errorf("%q: prov/rows mismatch %d != %d", q, len(res.Prov), len(res.Rows))
		}
		for _, row := range res.Rows {
			if len(row) != len(res.Columns) {
				t.Errorf("%q: row width %d != columns %d", q, len(row), len(res.Columns))
			}
		}
	}
}

// genDiffQuery emits a random, always-parseable query over genJoinDB's
// schema (facts(k,v,grp) JOIN dims(k,label)): random projection or
// aggregation, predicates, grouping, ordering, and paging. It is the
// workload generator for the vectorized-vs-row differential property.
func genDiffQuery(rng *rand.Rand) string {
	if rng.Intn(3) == 0 {
		return genSparseQuery(rng)
	}
	var b strings.Builder
	join := rng.Intn(2) == 0
	agg := rng.Intn(2) == 0
	b.WriteString("SELECT ")
	distinct := !agg && rng.Intn(4) == 0
	if distinct {
		b.WriteString("DISTINCT ")
	}
	var groupCols []string
	if agg {
		if join {
			groupCols = []string{"f.grp", "d.label"}[:1+rng.Intn(2)]
		} else {
			groupCols = []string{"grp"}
		}
		b.WriteString(strings.Join(groupCols, ", "))
		aggs := []string{"COUNT(*)", "SUM(f.v)", "AVG(f.v)", "MIN(f.v)", "MAX(f.k)", "COUNT(DISTINCT f.grp)"}
		if !join {
			aggs = []string{"COUNT(*)", "SUM(v)", "AVG(v)", "MIN(v)", "MAX(k)", "COUNT(DISTINCT grp)"}
		}
		b.WriteString(", " + aggs[rng.Intn(len(aggs))] + " AS m")
	} else {
		switch {
		case join && rng.Intn(3) == 0:
			b.WriteString("f.v, d.label")
		case join:
			b.WriteString("f.k, f.grp, d.label")
		case rng.Intn(3) == 0:
			b.WriteString("*")
		default:
			b.WriteString("k, v * 2 AS dv, grp")
		}
	}
	if join {
		b.WriteString(" FROM facts f JOIN dims d ON f.k = d.k")
	} else {
		b.WriteString(" FROM facts")
	}
	pre := "f."
	if !join {
		pre = ""
	}
	preds := []string{
		pre + "v > " + fmt.Sprintf("%d", rng.Intn(100)),
		pre + "k < " + fmt.Sprintf("%d", rng.Intn(200)),
		pre + "grp = 'g" + fmt.Sprintf("%d", rng.Intn(7)) + "'",
		pre + "grp LIKE 'g%'",
		pre + "v BETWEEN " + fmt.Sprintf("%d AND %d", rng.Intn(50), 50+rng.Intn(50)),
		pre + "k IN (1, 2, 3, " + fmt.Sprintf("%d", rng.Intn(200)) + ")",
	}
	if join {
		preds = append(preds, "d.label = 'd"+fmt.Sprintf("%d", rng.Intn(13))+"'")
	}
	n := rng.Intn(3)
	if n > 0 {
		chosen := make([]string, 0, n)
		for i := 0; i < n; i++ {
			chosen = append(chosen, preds[rng.Intn(len(preds))])
		}
		b.WriteString(" WHERE " + strings.Join(chosen, " AND "))
	}
	if agg {
		b.WriteString(" GROUP BY " + strings.Join(groupCols, ", "))
		if rng.Intn(3) == 0 {
			b.WriteString(" HAVING COUNT(*) > " + fmt.Sprintf("%d", rng.Intn(4)))
		}
		b.WriteString(" ORDER BY " + strings.Join(groupCols, ", "))
	} else if rng.Intn(2) == 0 {
		if join {
			b.WriteString(" ORDER BY f.v DESC, f.k")
		} else {
			b.WriteString(" ORDER BY v DESC, k")
		}
	}
	if rng.Intn(3) == 0 {
		b.WriteString(" LIMIT " + fmt.Sprintf("%d", rng.Intn(40)))
		if rng.Intn(2) == 0 {
			b.WriteString(" OFFSET " + fmt.Sprintf("%d", rng.Intn(10)))
		}
	}
	return b.String()
}

// genSparseQuery emits a random, always-parseable query over
// genJoinDB's sparse table, alone or joined on a key with NULLs in it:
// the statements that read a NULL bitmap, an all-NULL column or a
// KindNull one through every operator. Some fail (SUM over TEXT); both
// engines must then fail alike.
func genSparseQuery(rng *rand.Rand) string {
	pick := func(options ...string) string { return options[rng.Intn(len(options))] }
	col := func() string { return "s." + pick("k", "x", "s", "b", "ni", "nf", "ns", "nb", "z") }
	from := pick(
		"sparse s",
		"facts f JOIN sparse s ON f.k = s.k",
		"sparse s JOIN dims d ON s.k = d.k",
		"sparse s JOIN dims d ON s.x = d.k", // FLOAT key, -0 included, against INT
		"sparse s JOIN sparse t ON s.x = t.k AND s.b = t.b",
		"sparse s JOIN sparse t ON s.s = t.s AND s.k < t.k",
		"sparse s JOIN sparse t ON s.nf = t.nf",
	)
	var b strings.Builder
	b.WriteString("SELECT ")
	group := ""
	switch rng.Intn(3) {
	case 0:
		group = col()
		fmt.Fprintf(&b, "%s, COUNT(*), %s(%s) AS m", group, pick("COUNT", "SUM", "AVG", "MIN", "MAX", "COUNT"), col())
	case 1:
		fmt.Fprintf(&b, "%s(%s), %s(DISTINCT %s), MIN(s.x + s.k)", pick("COUNT", "SUM", "AVG", "MIN", "MAX"), col(), pick("COUNT", "SUM", "MAX"), col())
	default:
		if from == "sparse s" && rng.Intn(3) == 0 {
			b.WriteString("*")
		} else {
			fmt.Fprintf(&b, "%s%s, %s, COALESCE(%s, s.k) AS c", pick("", "DISTINCT "), col(), col(), col())
		}
	}
	b.WriteString(" FROM " + from)
	preds := []string{
		"s.x > " + fmt.Sprint(rng.Intn(100)), "s.x <= 0", "s.x = 0", "s.x != 2", "s.k < " + fmt.Sprint(rng.Intn(60)), "s.k >= 2.0",
		"s.s = 'g" + fmt.Sprint(rng.Intn(7)) + "'", "s.s > 'g3'", "s.b = TRUE", "s.b != FALSE", "s.s = 3", "s.k = 'g1'",
		"s.ni > 1", "s.nf < 2.5", "s.ns = 'a'", "s.nb = TRUE", "s.z = 1", "s.z IS NULL",
		col() + " IS NULL", col() + " IS NOT NULL", "NOT s.b", "s.x BETWEEN 1 AND 50", "s.k IN (1, 2, 3)",
	}
	if n := rng.Intn(3); n > 0 {
		b.WriteString(" WHERE " + pick(preds...))
		if n > 1 {
			b.WriteString(pick(" AND ", " OR ") + pick(preds...))
		}
	}
	switch {
	case group != "":
		b.WriteString(" GROUP BY " + group + pick("", " HAVING COUNT(*) > 1") + " ORDER BY " + group)
	case rng.Intn(2) == 0:
		b.WriteString(" ORDER BY " + col() + pick("", " DESC") + ", s.k, s.x")
	}
	if rng.Intn(3) == 0 {
		b.WriteString(" LIMIT " + fmt.Sprint(rng.Intn(40)))
	}
	return b.String()
}

// TestVectorizedMatchesRowOracleFuzz is the engine differential
// property: hundreds of generated queries run through both the legacy
// row-at-a-time oracle and the vectorized engine, which must agree on
// Rows, Prov, Stats, and Fingerprint bit-for-bit. The second pass runs
// at GOMAXPROCS 4 over a sparse table of 1 124 rows, so vFilter cuts
// its NULL-bearing columns into spans.
func TestVectorizedMatchesRowOracleFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	matchRowOracle(t, genJoinDB(1500, 80, 11), rng, 450)
	setProcs(t, 4)
	matchRowOracle(t, genJoinDB(1500, 1024, 11), rng, 150)
}

// matchRowOracle runs n generated queries through both engines over db.
func matchRowOracle(t *testing.T, db *storage.Database, rng *rand.Rand, n int) {
	t.Helper()
	e := NewEngine(db)
	for i := 0; i < n; i++ {
		q := genDiffQuery(rng)
		want, werr := e.queryRow(q)
		got, gerr := e.Query(q)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("%q: error divergence oracle=%v vectorized=%v", q, werr, gerr)
		}
		if werr != nil {
			if werr.Error() != gerr.Error() {
				t.Fatalf("%q: error text diverged oracle=%q vectorized=%q", q, werr, gerr)
			}
			continue
		}
		if want.Fingerprint() != got.Fingerprint() {
			t.Fatalf("%q: fingerprints differ", q)
		}
		if !reflect.DeepEqual(want.Rows, got.Rows) {
			t.Fatalf("%q: rows differ\noracle %v\nvector %v", q, want.Rows, got.Rows)
		}
		if !reflect.DeepEqual(want.Prov, got.Prov) {
			t.Fatalf("%q: provenance differs", q)
		}
		if want.Stats != got.Stats {
			t.Fatalf("%q: stats oracle %+v vectorized %+v", q, want.Stats, got.Stats)
		}
	}
}

// TestOptimizedMatchesUnoptimized is the planner's differential: the
// row oracle shares the hash join's key with the columnar engine, so
// only a run without the hash join — DisableOptimizations, where ON is
// evaluated by Value.Compare — can say whether the key agrees with `=`.
// FLOAT -0 must join INT 0, 2.0 join 2, and a NULL key join nothing.
func TestOptimizedMatchesUnoptimized(t *testing.T) {
	db := genJoinDB(300, 40, 5)
	a := storage.NewTable("a", storage.Schema{{Name: "k", Kind: storage.KindFloat}, {Name: "tag", Kind: storage.KindString}})
	b := storage.NewTable("b", storage.Schema{{Name: "k", Kind: storage.KindInt}, {Name: "tag", Kind: storage.KindString}})
	for i, k := range []storage.Value{storage.Float(math.Copysign(0, -1)), storage.Float(2), storage.Null(), storage.Float(0), storage.Float(1.5), storage.Float(-2)} {
		a.MustAppendRow(k, storage.Str(fmt.Sprint("a", i)))
	}
	for i, k := range []storage.Value{storage.Int(0), storage.Int(2), storage.Null(), storage.Int(7), storage.Int(2), storage.Int(-2)} {
		b.MustAppendRow(k, storage.Str(fmt.Sprint("b", i)))
	}
	db.Put(a)
	db.Put(b)
	hash := NewEngine(db)
	nested := NewEngine(db)
	nested.DisableOptimizations = true
	for q, wantRows := range map[string]int{
		"SELECT a.k FROM a JOIN b ON a.k = b.k":                                           5, // -0·0, 2·2 twice, 0·0, -2·-2
		"SELECT a.tag, b.tag FROM b JOIN a ON b.k = a.k ORDER BY a.tag, b.tag":            5,
		"SELECT a.tag, b.tag FROM a JOIN b ON a.k = b.k AND a.tag < b.tag":                5,
		"SELECT x.tag, y.tag FROM a x JOIN a y ON x.k = y.k":                              7, // the two zeros meet each way; NULL meets nothing
		"SELECT s.x, d.k, d.label FROM sparse s JOIN dims d ON s.x = d.k":                 -1,
		"SELECT COUNT(*), SUM(d.k) FROM sparse s JOIN dims d ON d.k = s.x":                -1,
		"SELECT s.k, t.x FROM sparse s JOIN sparse t ON s.k = t.x WHERE t.x <= 0":         -1,
		"SELECT s.s, COUNT(*) FROM sparse s JOIN sparse t ON s.s = t.s GROUP BY s.s":      -1,
		"SELECT s.b, t.k FROM sparse s JOIN sparse t ON s.b = t.b AND s.k = t.k":          -1,
		"SELECT COUNT(*) FROM sparse s JOIN sparse t ON s.nf = t.nf":                      -1,
		"SELECT f.k, s.x FROM facts f JOIN sparse s ON f.k = s.x WHERE f.v > 50":          -1,
		"SELECT f.grp, COUNT(*) FROM facts f JOIN sparse s ON f.grp = s.s GROUP BY f.grp": -1,
	} {
		want, err := nested.Query(q)
		if err != nil {
			t.Fatalf("unoptimized %q: %v", q, err)
		}
		got, err := hash.Query(q)
		if err != nil {
			t.Fatalf("optimized %q: %v", q, err)
		}
		if got.Stats.HashJoins != 1 || want.Stats.HashJoins != 0 {
			t.Fatalf("%q: %d and %d hash joins, want 1 and 0", q, got.Stats.HashJoins, want.Stats.HashJoins)
		}
		if !reflect.DeepEqual(want.Rows, got.Rows) || !reflect.DeepEqual(want.Prov, got.Prov) {
			t.Errorf("%q: the hash join answers\n%v\nthe nested loop\n%v", q, got.Rows, want.Rows)
		}
		if wantRows >= 0 && len(got.Rows) != wantRows {
			t.Errorf("%q: %d rows, want %d", q, len(got.Rows), wantRows)
		}
	}
}
