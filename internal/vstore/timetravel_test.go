package vstore

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"github.com/reliable-cda/cda/internal/sqldb"
	"github.com/reliable-cda/cda/internal/storage"
)

// The time-travel correctness gate (acceptance criterion): commit K
// versions of a table with seeded edits, then
//
//   - every version's AsOf snapshot yields sqldb results byte-identical
//     to results captured against the live database at commit time;
//   - adjacent materialized versions differ by exactly the seeded edits;
//   - chunk growth per commit is O(delta), not O(table) — structural
//     sharing is real, not cosmetic.

const ttRows = 4100 // ~17 leaves per column at DefaultLeafRows

var ttQueries = []string{
	"SELECT id, region, value FROM metrics ORDER BY id",
	"SELECT region, COUNT(*) AS n FROM metrics GROUP BY region ORDER BY region",
	"SELECT region, SUM(value) AS total FROM metrics GROUP BY region ORDER BY region",
	"SELECT id, value FROM metrics WHERE value > 400 ORDER BY id DESC LIMIT 25",
}

// renderResult serializes a query result byte-exactly.
func renderResult(res *sqldb.Result) string {
	var sb strings.Builder
	sb.WriteString(strings.Join(res.Columns, "|"))
	sb.WriteByte('\n')
	for _, row := range res.Rows {
		for j, v := range row {
			if j > 0 {
				sb.WriteByte('|')
			}
			sb.WriteString(v.Kind.String())
			sb.WriteByte(':')
			sb.WriteString(v.String())
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func runQueries(t *testing.T, db *storage.Database) []string {
	t.Helper()
	eng := sqldb.NewEngine(db)
	out := make([]string, len(ttQueries))
	for i, q := range ttQueries {
		res, err := eng.Query(q)
		if err != nil {
			t.Fatalf("query %q: %v", q, err)
		}
		out[i] = renderResult(res)
	}
	return out
}

// seededEdit is one applied change, the oracle for adjacent versions.
type seededEdit struct {
	changedRows []int
	rowsAdded   int
}

// applyEdit mutates the live table at seeded row indices and appends
// a few rows, returning the oracle.
func applyEdit(t *testing.T, tab *storage.Table, rng *rand.Rand, nEdits, nAppends int) seededEdit {
	t.Helper()
	rows := tab.NumRows()
	changed := map[int]bool{}
	for len(changed) < nEdits {
		changed[rng.Intn(rows)] = true
	}
	for r := range changed {
		if err := tab.Set(r, 2, storage.Float(float64(rng.Intn(100000))/7.0)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < nAppends; i++ {
		tab.MustAppendRow(
			storage.Int(int64(rows+i)),
			storage.Str("appended"),
			storage.Float(float64(rng.Intn(1000))),
		)
	}
	edit := seededEdit{rowsAdded: nAppends}
	for r := range changed {
		edit.changedRows = append(edit.changedRows, r)
	}
	sort.Ints(edit.changedRows)
	return edit
}

func TestTimeTravelGate(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer func() {
		if err := s.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	rng := rand.New(rand.NewSource(20260808))
	db := demoDB(ttRows)
	tab, err := db.Get("metrics")
	if err != nil {
		t.Fatalf("get table: %v", err)
	}

	const K = 6
	var (
		commits  []Commit
		captured [][]string
		edits    []seededEdit // edits[k] transformed version k into k+1
		chunksAt []int
	)
	for k := 0; k < K; k++ {
		if k > 0 {
			edits = append(edits, applyEdit(t, tab, rng, 2+k%3, k%2))
		}
		c, err := s.CommitDatabase("db/main", db, k)
		if err != nil {
			t.Fatalf("commit version %d: %v", k, err)
		}
		commits = append(commits, c)
		captured = append(captured, runQueries(t, db))
		chunksAt = append(chunksAt, s.NumChunks())
	}

	// 1. Every version's AsOf snapshot reproduces its captured results
	// byte for byte — read from a second open of the directory, so from
	// what the journal holds and not what this process remembers.
	requireReopensEqual(t, dir, s)
	r, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer func() {
		if err := r.Close(); err != nil {
			t.Errorf("close reopened: %v", err)
		}
	}()
	for k := 0; k < K; k++ {
		snap, c, err := r.DatabaseAsOf("db/main", k)
		if err != nil {
			t.Fatalf("DatabaseAsOf(%d): %v", k, err)
		}
		if c.Hash != commits[k].Hash {
			t.Fatalf("AsOf(%d) resolved %s, want %s", k, c.Hash, commits[k].Hash)
		}
		got := runQueries(t, snap)
		for i := range ttQueries {
			if got[i] != captured[k][i] {
				t.Fatalf("version %d query %q drifted:\nat commit time:\n%s\nvia AsOf:\n%s",
					k, ttQueries[i], captured[k][i], got[i])
			}
		}
	}

	// 2. Adjacent versions, materialized from the reopened journal,
	// differ by exactly the seeded edits: the rows set, over the rows
	// both hold, and the rows appended.
	version := func(k int) *storage.Table {
		db, err := r.MaterializeDatabase(commits[k].Hash)
		if err != nil {
			t.Fatalf("materialize version %d: %v", k, err)
		}
		tab, err := db.Get("metrics")
		if err != nil {
			t.Fatal(err)
		}
		return tab
	}
	for k := 1; k < K; k++ {
		prev, cur, want := version(k-1), version(k), edits[k-1]
		if cur.NumRows() != prev.NumRows()+want.rowsAdded {
			t.Fatalf("version %d has %d rows, version %d %d; want %d appended", k, cur.NumRows(), k-1, prev.NumRows(), want.rowsAdded)
		}
		var changed []int
		for row := 0; row < prev.NumRows(); row++ {
			for c := 0; c < prev.NumCols(); c++ {
				if !sameValue(prev.At(row, c), cur.At(row, c)) {
					changed = append(changed, row)
					break
				}
			}
		}
		if fmt.Sprint(changed) != fmt.Sprint(want.changedRows) {
			t.Fatalf("versions %d and %d differ in rows %v, want %v", k-1, k, changed, want.changedRows)
		}
	}

	// 3. Structural sharing: the first commit writes the whole table
	// (many chunks); each delta commit writes O(delta) chunks — the
	// edited leaves plus the table/db/commit spine — far fewer than a
	// fresh encoding would.
	full := chunksAt[0]
	minLeaves := ttRows / DefaultLeafRows // per column
	// At least the id and value columns have all-distinct leaves (the
	// region column's periodic leaves dedup amongst themselves).
	if full < 2*minLeaves {
		t.Fatalf("initial commit wrote %d chunks; table should span at least %d leaves", full, 2*minLeaves)
	}
	for k := 1; k < K; k++ {
		delta := chunksAt[k] - chunksAt[k-1]
		// Worst case per seeded edit: ~4 distinct value leaves + 1 id
		// leaf + 1 region leaf (appends) + table + db + commit.
		if delta > full/2 {
			t.Fatalf("commit %d grew the store by %d chunks (full table is %d): O(table), not O(delta)",
				k, delta, full)
		}
		if delta > 12 {
			t.Fatalf("commit %d grew the store by %d chunks, want <= 12 for <=4 seeded edits", k, delta)
		}
	}
}

func TestMaterializePreservesSchemaMetadata(t *testing.T) {
	s := NewMemory()
	db := demoDB(10)
	tab, err := db.Get("metrics")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	tab.Description = "per-region metric samples"
	c, err := s.CommitDatabase("db/main", db, 0)
	if err != nil {
		t.Fatalf("commit: %v", err)
	}
	got, err := s.MaterializeDatabase(c.Hash) // commit hash resolves to tree
	if err != nil {
		t.Fatalf("materialize: %v", err)
	}
	gt, err := got.Get("metrics")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if gt.Description != "per-region metric samples" {
		t.Fatalf("table description lost: %q", gt.Description)
	}
	if gt.Schema()[1].Description != "sales region" {
		t.Fatalf("column description lost: %+v", gt.Schema()[1])
	}
	if gt.Schema()[2].Kind != storage.KindFloat {
		t.Fatalf("column kind lost: %+v", gt.Schema()[2])
	}
}

func TestEncodeDatabaseCanonicalOrder(t *testing.T) {
	s := NewMemory()
	mk := func(names ...string) *storage.Database {
		db := storage.NewDatabase("demo")
		for _, n := range names {
			tab := storage.NewTable(n, storage.Schema{{Name: "x", Kind: storage.KindInt}})
			tab.MustAppendRow(storage.Int(1))
			db.Put(tab)
		}
		return db
	}
	a, err := encodeDatabase(s, mk("alpha", "beta"))
	if err != nil {
		t.Fatalf("encode a: %v", err)
	}
	b, err := encodeDatabase(s, mk("beta", "alpha"))
	if err != nil {
		t.Fatalf("encode b: %v", err)
	}
	if a != b {
		t.Fatalf("registration order leaked into the hash: %s vs %s", a, b)
	}
}
