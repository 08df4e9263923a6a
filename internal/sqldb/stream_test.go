package sqldb

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"github.com/reliable-cda/cda/internal/storage"
)

// e7StreamQuery is the E7-shaped workload: join + filter + grouped
// aggregation + ordering, the pipeline the ablation bench exercises.
const e7StreamQuery = "SELECT f.grp, d.label, COUNT(*) AS n, AVG(f.v) AS av " +
	"FROM facts f JOIN dims d ON f.k = d.k WHERE f.v > 30 " +
	"GROUP BY f.grp, d.label ORDER BY f.grp, d.label"

func collectStream(t *testing.T, e *Engine, ctx context.Context, q string, opts StreamOptions) ([]Partial, error) {
	t.Helper()
	stmt, err := Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	var parts []Partial
	serr := e.ExecStream(ctx, stmt, opts, func(p Partial) error {
		parts = append(parts, p)
		return nil
	})
	return parts, serr
}

// TestExecStreamTightensAndConverges: the stream must emit at least
// two snapshots on the E7 workload, completeness must be
// non-decreasing and end at 1 with Done set, and the final snapshot
// must be byte-identical to Execute — Rows, Prov, Stats, Fingerprint.
func TestExecStreamTightensAndConverges(t *testing.T) {
	db := genJoinDB(4000, 200, 7)
	e := NewEngine(db)
	stmt, err := Parse(e7StreamQuery)
	if err != nil {
		t.Fatal(err)
	}
	want, err := e.Execute(stmt)
	if err != nil {
		t.Fatal(err)
	}
	parts, serr := collectStream(t, e, context.Background(), e7StreamQuery, StreamOptions{})
	if serr != nil {
		t.Fatalf("ExecStream: %v", serr)
	}
	if len(parts) < 2 {
		t.Fatalf("expected >= 2 partial snapshots, got %d", len(parts))
	}
	last := -1.0
	for i, p := range parts {
		if p.Completeness < last {
			t.Fatalf("snapshot %d: completeness %v < previous %v", i, p.Completeness, last)
		}
		last = p.Completeness
		if p.Done != (i == len(parts)-1) {
			t.Fatalf("snapshot %d: Done=%v misplaced", i, p.Done)
		}
		if p.Result == nil {
			t.Fatalf("snapshot %d: nil result", i)
		}
	}
	if last != 1.0 {
		t.Fatalf("final completeness %v, want 1", last)
	}
	final := parts[len(parts)-1].Result
	if final.Fingerprint() != want.Fingerprint() {
		t.Fatal("final snapshot fingerprint differs from Execute")
	}
	if !reflect.DeepEqual(final.Rows, want.Rows) {
		t.Fatal("final snapshot rows differ from Execute")
	}
	if !reflect.DeepEqual(final.Prov, want.Prov) {
		t.Fatal("final snapshot provenance differs from Execute")
	}
	if final.Stats != want.Stats {
		t.Fatalf("final snapshot stats %+v, want %+v", final.Stats, want.Stats)
	}
}

// TestExecStreamPartialsAreExactPrefixAnswers: each snapshot must be
// the exact answer to the query restricted to the driving-table prefix
// consumed so far — not an approximation.
func TestExecStreamPartialsAreExactPrefixAnswers(t *testing.T) {
	db := genJoinDB(1000, 50, 3)
	e := NewEngine(db)
	const batch = 250
	parts, serr := collectStream(t, e, context.Background(), e7StreamQuery, StreamOptions{BatchRows: batch})
	if serr != nil {
		t.Fatal(serr)
	}
	if len(parts) != 4 {
		t.Fatalf("expected 4 snapshots at BatchRows=%d over 1000 rows, got %d", batch, len(parts))
	}
	// Reproduce each prefix answer with a prefix copy of the driving
	// table and a plain Execute.
	facts, err := db.Get("facts")
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range parts {
		hi := (i + 1) * batch
		pdb := storage.NewDatabase("prefix")
		pt := storage.NewTable("facts", facts.Schema())
		for r := 0; r < hi; r++ {
			pt.MustAppendRow(rowOf(facts, r)...)
		}
		pdb.Put(pt)
		dims, err := db.Get("dims")
		if err != nil {
			t.Fatal(err)
		}
		pdb.Put(dims)
		pe := NewEngine(pdb)
		want, err := pe.Query(e7StreamQuery)
		if err != nil {
			t.Fatal(err)
		}
		if p.Result.Fingerprint() != want.Fingerprint() {
			t.Fatalf("snapshot %d is not the exact prefix answer", i)
		}
		if !reflect.DeepEqual(p.Result.Rows, want.Rows) {
			t.Fatalf("snapshot %d rows differ from prefix answer", i)
		}
	}
}

// TestExecStreamCancellation: cancelling the context mid-stream stops
// the feed with ctx.Err() before the Done snapshot arrives.
func TestExecStreamCancellation(t *testing.T) {
	db := genJoinDB(4000, 200, 7)
	e := NewEngine(db)
	stmt, err := Parse(e7StreamQuery)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var parts []Partial
	serr := e.ExecStream(ctx, stmt, StreamOptions{BatchRows: 500}, func(p Partial) error {
		parts = append(parts, p)
		if len(parts) == 2 {
			cancel()
		}
		return nil
	})
	if !errors.Is(serr, context.Canceled) {
		t.Fatalf("ExecStream error = %v, want context.Canceled", serr)
	}
	if len(parts) != 2 {
		t.Fatalf("expected exactly 2 snapshots before cancellation, got %d", len(parts))
	}
	for _, p := range parts {
		if p.Done {
			t.Fatal("cancelled stream must not emit a Done snapshot")
		}
		if p.Completeness >= 1 {
			t.Fatalf("cancelled stream completeness %v, want < 1", p.Completeness)
		}
	}
}

// TestExecStreamEmitError: a consumer error aborts the stream and is
// returned verbatim.
func TestExecStreamEmitError(t *testing.T) {
	db := genJoinDB(2000, 100, 5)
	e := NewEngine(db)
	stmt, err := Parse("SELECT grp, COUNT(*) FROM facts GROUP BY grp ORDER BY grp")
	if err != nil {
		t.Fatal(err)
	}
	sentinel := errors.New("consumer full")
	calls := 0
	serr := e.ExecStream(context.Background(), stmt, StreamOptions{BatchRows: 100}, func(Partial) error {
		calls++
		if calls == 3 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(serr, sentinel) {
		t.Fatalf("ExecStream error = %v, want sentinel", serr)
	}
	if calls != 3 {
		t.Fatalf("emit called %d times, want 3", calls)
	}
}

// TestExecStreamEmptyTable: an empty driving table still emits exactly
// one complete, Done snapshot.
func TestExecStreamEmptyTable(t *testing.T) {
	db := storage.NewDatabase("empty")
	tb := storage.NewTable("facts", storage.Schema{
		{Name: "k", Kind: storage.KindInt},
		{Name: "v", Kind: storage.KindFloat},
		{Name: "grp", Kind: storage.KindString},
	})
	db.Put(tb)
	e := NewEngine(db)
	parts, serr := collectStream(t, e, context.Background(),
		"SELECT grp, COUNT(*) FROM facts GROUP BY grp", StreamOptions{})
	if serr != nil {
		t.Fatal(serr)
	}
	if len(parts) != 1 || !parts[0].Done || parts[0].Completeness != 1 {
		t.Fatalf("empty table: got %+v, want one Done snapshot at completeness 1", parts)
	}
	if len(parts[0].Result.Rows) != 0 {
		t.Fatalf("empty table produced rows: %v", parts[0].Result.Rows)
	}
}

// TestExecStreamMatchesExecuteAcrossBatchSizes: the final snapshot is
// invariant to the batch size, including degenerate single-row
// batches.
func TestExecStreamMatchesExecuteAcrossBatchSizes(t *testing.T) {
	db := genJoinDB(500, 40, 9)
	e := NewEngine(db)
	for _, q := range parallelPropQueries {
		stmt, err := Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := e.Execute(stmt)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		for _, batch := range []int{1, 7, 100, 500, 10000} {
			parts, serr := collectStream(t, e, context.Background(), q, StreamOptions{BatchRows: batch})
			if serr != nil {
				t.Fatalf("%q batch=%d: %v", q, batch, serr)
			}
			final := parts[len(parts)-1]
			if !final.Done {
				t.Fatalf("%q batch=%d: last snapshot not Done", q, batch)
			}
			if final.Result.Fingerprint() != want.Fingerprint() ||
				!reflect.DeepEqual(final.Result.Rows, want.Rows) ||
				!reflect.DeepEqual(final.Result.Prov, want.Prov) ||
				final.Result.Stats != want.Stats {
				t.Fatalf("%q batch=%d: final snapshot diverges from Execute", q, batch)
			}
		}
	}
}
