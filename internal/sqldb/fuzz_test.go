package sqldb

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
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

// TestVectorizedMatchesRowOracleFuzz is the engine differential
// property: hundreds of generated queries run through both the legacy
// row-at-a-time oracle and the vectorized engine, which must agree on
// Rows, Prov, Stats, and Fingerprint bit-for-bit.
func TestVectorizedMatchesRowOracleFuzz(t *testing.T) {
	db := genJoinDB(1500, 80, 11)
	oracle := NewEngine(db)
	vec := NewEngine(db)
	vec.ParallelThreshold = 1 // force the parallel operators
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 300; i++ {
		q := genDiffQuery(rng)
		want, werr := oracle.queryRow(q)
		got, gerr := vec.Query(q)
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
