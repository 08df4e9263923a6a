package sessionstore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/reliable-cda/cda/internal/dialogue"
	"github.com/reliable-cda/cda/internal/faults"
	"github.com/reliable-cda/cda/internal/resilience"
)

// commitPair appends one question/answer pair and persists it.
func commitPair(t *testing.T, st *Store, e *Entry, q, a string, conf float64) {
	t.Helper()
	err := e.Do(func(sess *dialogue.Session) error {
		sess.CommitTurn(q, dialogue.ClassifyIntent(q), a, conf)
		return st.CommitTurn(e)
	})
	if err != nil {
		t.Fatalf("commit %q: %v", q, err)
	}
}

func transcriptOf(t *testing.T, e *Entry) string {
	t.Helper()
	var out string
	if err := e.Do(func(sess *dialogue.Session) error {
		out = Transcript(sess)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestRecoverByteIdentical(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Config{Dir: dir, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	var want []string
	for i := 0; i < 5; i++ {
		e, err := st.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j <= i; j++ {
			commitPair(t, st, e,
				fmt.Sprintf("how many employment in region %d-%d", i, j),
				fmt.Sprintf("there are %d", 10*i+j),
				0.5+float64(j)/17) // awkward float: exercises exact round-trip
		}
		ids = append(ids, e.ID)
		want = append(want, transcriptOf(t, e))
	}
	// Simulated kill: no Close, no Compact.
	st2, err := Open(Config{Dir: dir, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := st2.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	if st2.Len() != 5 {
		t.Fatalf("recovered %d sessions, want 5", st2.Len())
	}
	for i, id := range ids {
		e, status := st2.Get(id)
		if status != Found {
			t.Fatalf("session %s status = %v", id, status)
		}
		if got := transcriptOf(t, e); got != want[i] {
			t.Errorf("session %s transcript mismatch:\n got: %q\nwant: %q", id, got, want[i])
		}
	}
	// Recovered store keeps issuing fresh ids.
	e, err := st2.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if e.ID == id {
			t.Fatalf("recovered store re-issued id %s", id)
		}
	}
}

func TestRecoverAfterSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Config{Dir: dir, Shards: 1, SnapshotEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	e, err := st.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 7; j++ {
		commitPair(t, st, e, fmt.Sprintf("q%d", j), fmt.Sprintf("a%d", j), 0.9)
	}
	want := transcriptOf(t, e)
	// Compaction must have fired (8 records > 2*SnapshotEvery) into the
	// shard root, and written nothing beside the WAL and the version
	// store: no snapshot document.
	if head, err := st.Versions().Head(ShardRoot(0)); err != nil || head.Turn != 6 {
		t.Fatalf("shard root head = %+v, %v; want one at the horizon 6", head, err)
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, f := range files {
		names = append(names, f.Name())
	}
	if fmt.Sprint(names) != "[shard-00.wal vstore]" {
		t.Fatalf("data dir after compactions holds %v, want the WAL and the version store", names)
	}
	st2, err := Open(Config{Dir: dir, Shards: 1, SnapshotEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	got, status := st2.Get(e.ID)
	if status != Found {
		t.Fatalf("status = %v", status)
	}
	if tr := transcriptOf(t, got); tr != want {
		t.Errorf("post-compaction recovery mismatch:\n got: %q\nwant: %q", tr, want)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReplayIdempotentOverSnapshot simulates a crash between the shard
// root's commit and WAL truncation: the WAL still holds records the
// root already folded in, and replay must not duplicate them.
func TestReplayIdempotentOverSnapshot(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Config{Dir: dir, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	e, err := st.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	commitPair(t, st, e, "q0", "a0", 0.8)
	commitPair(t, st, e, "q1", "a1", 0.7)
	want := transcriptOf(t, e)
	walPath := filepath.Join(dir, "shard-00.wal")
	walBytes, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	// Resurrect the pre-compaction WAL next to the committed shard root.
	if err := os.WriteFile(walPath, walBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(Config{Dir: dir, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, status := st2.Get(e.ID)
	if status != Found {
		t.Fatalf("status = %v", status)
	}
	if tr := transcriptOf(t, got); tr != want {
		t.Errorf("replay duplicated snapshotted turns:\n got: %q\nwant: %q", tr, want)
	}
}

// TestWALTornTailRecovers is the torn-tail regression: a crash
// mid-append leaves a truncated final record, and Open must recover
// the longest valid prefix cleanly rather than error.
func TestWALTornTailRecovers(t *testing.T) {
	for _, cut := range []int{1, 5, 9, 17} {
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			dir := t.TempDir()
			st, err := Open(Config{Dir: dir, Shards: 1})
			if err != nil {
				t.Fatal(err)
			}
			e, err := st.NewSession()
			if err != nil {
				t.Fatal(err)
			}
			commitPair(t, st, e, "q0", "a0", 0.8)
			prefix := transcriptOf(t, e)
			commitPair(t, st, e, "q1", "a1", 0.7)
			walPath := filepath.Join(dir, "shard-00.wal")
			info, err := os.Stat(walPath)
			if err != nil {
				t.Fatal(err)
			}
			// Tear the final (second) turn record by cut bytes.
			if err := os.Truncate(walPath, info.Size()-int64(cut)); err != nil {
				t.Fatal(err)
			}
			st2, err := Open(Config{Dir: dir, Shards: 1})
			if err != nil {
				t.Fatalf("torn tail must recover, got %v", err)
			}
			got, status := st2.Get(e.ID)
			if status != Found {
				t.Fatalf("status = %v", status)
			}
			if tr := transcriptOf(t, got); tr != prefix {
				t.Errorf("recovered transcript:\n got: %q\nwant committed prefix: %q", tr, prefix)
			}
			// The store stays writable on the clean frame boundary.
			commitPair(t, st2, got, "q2", "a2", 0.6)
			st3, err := Open(Config{Dir: dir, Shards: 1})
			if err != nil {
				t.Fatal(err)
			}
			e3, status := st3.Get(e.ID)
			if status != Found {
				t.Fatal("post-repair session lost")
			}
			if tr := transcriptOf(t, e3); !strings.Contains(tr, "q2") {
				t.Errorf("post-repair commit lost: %q", tr)
			}
		})
	}
}

// TestCrashFaultRollsBack drives the injected torn-write path: the
// commit fails with ErrCrashed, the in-memory transcript rolls back
// to the durable prefix, and recovery agrees with it byte-for-byte.
func TestCrashFaultRollsBack(t *testing.T) {
	dir := t.TempDir()
	inj := faults.New(faults.Config{Seed: 3,
		PerBackend: map[string]faults.Rates{"wal": {Crash: 1}}}, nil)
	st, err := Open(Config{Dir: dir, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	e, err := st.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	commitPair(t, st, e, "q0", "a0", 0.8)
	want := transcriptOf(t, e)
	// Arm the crash injector after a clean prefix exists: reopen the
	// directory with it configured.
	st, err = Open(Config{Dir: dir, Shards: 1, Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	e, _ = st.Get(e.ID)
	if got := transcriptOf(t, e); got != want {
		t.Fatalf("reopened transcript = %q, want %q", got, want)
	}
	err = e.Do(func(sess *dialogue.Session) error {
		sess.CommitTurn("q1", dialogue.IntentQuery, "a1", 0.7)
		return st.CommitTurn(e)
	})
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("commit after crash fault = %v, want ErrCrashed", err)
	}
	if got := transcriptOf(t, e); got != want {
		t.Errorf("in-memory transcript not rolled back:\n got: %q\nwant: %q", got, want)
	}
	// Everything after the crash must keep failing: the process is dead.
	err = e.Do(func(sess *dialogue.Session) error {
		sess.CommitTurn("q2", dialogue.IntentQuery, "a2", 0.7)
		return st.CommitTurn(e)
	})
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash commit = %v, want ErrCrashed", err)
	}
	st2, err := Open(Config{Dir: dir, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, status := st2.Get(e.ID)
	if status != Found {
		t.Fatalf("status = %v", status)
	}
	if tr := transcriptOf(t, got); tr != want {
		t.Errorf("recovered transcript:\n got: %q\nwant: %q", tr, want)
	}
}

func TestTTLEviction(t *testing.T) {
	dir := t.TempDir()
	clock := resilience.NewVirtualClock()
	cfg := Config{Dir: dir, Shards: 2, TTL: 10 * time.Minute, Clock: clock}
	st, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e, err := st.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	commitPair(t, st, e, "q0", "a0", 0.8)
	clock.Advance(9 * time.Minute)
	if _, status := st.Get(e.ID); status != Found {
		t.Fatalf("fresh session status = %v", status)
	}
	// The Get above refreshed the idle timer; idle past the TTL now
	// evicts deterministically.
	clock.Advance(11 * time.Minute)
	if _, status := st.Get(e.ID); status != Gone {
		t.Fatalf("idle session status = %v, want Gone", status)
	}
	if _, status := st.Get("s9999"); status != NotFound {
		t.Fatal("unknown id must stay NotFound, not Gone")
	}
	// Tombstones survive restart: still Gone, never 404.
	st2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, status := st2.Get(e.ID); status != Gone {
		t.Fatalf("restarted status = %v, want Gone", status)
	}
	// And the id is never re-issued even though the session is gone.
	e2, err := st2.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	if e2.ID == e.ID {
		t.Fatalf("tombstoned id %s re-issued", e.ID)
	}
}

func TestSweepIdle(t *testing.T) {
	clock := resilience.NewVirtualClock()
	st := NewMemory(Config{Shards: 4, TTL: time.Minute, Clock: clock})
	var old []*Entry
	for i := 0; i < 6; i++ {
		e, err := st.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		old = append(old, e)
	}
	clock.Advance(2 * time.Minute)
	fresh, err := st.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	n, err := st.SweepIdle()
	if err != nil {
		t.Fatal(err)
	}
	if n != 6 {
		t.Fatalf("swept %d, want 6", n)
	}
	for _, e := range old {
		if _, status := st.Get(e.ID); status != Gone {
			t.Errorf("session %s status after sweep = %v", e.ID, status)
		}
	}
	if _, status := st.Get(fresh.ID); status != Found {
		t.Error("fresh session swept")
	}
}

func TestShardLayout(t *testing.T) {
	st := NewMemory(Config{Shards: 5}) // rounds up to 8
	if st.Shards() != 8 {
		t.Fatalf("shards = %d, want 8 (next power of two)", st.Shards())
	}
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		idx := st.ShardIndex(fmt.Sprintf("s%04d", i))
		if idx < 0 || idx >= 8 {
			t.Fatalf("shard index %d out of range", idx)
		}
		seen[idx] = true
	}
	if len(seen) < 4 {
		t.Errorf("FNV sharding used only %d/8 shards over 200 ids", len(seen))
	}
	// Placement is a pure function of the id: recovery must find each
	// session in the shard that logged it.
	if st.ShardIndex("s0001") != st.ShardIndex("s0001") {
		t.Fatal("shard index unstable")
	}
}

func TestConcurrentLifecycle(t *testing.T) {
	dir := t.TempDir()
	clock := resilience.NewVirtualClock()
	st, err := Open(Config{Dir: dir, Shards: 8, SnapshotEvery: 4,
		TTL: time.Hour, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	const perWorker = 5
	ids := make([][]string, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				e, err := st.NewSession()
				if err != nil {
					t.Errorf("worker %d: %v", g, err)
					return
				}
				for j := 0; j < 3; j++ {
					commitErr := e.Do(func(sess *dialogue.Session) error {
						sess.CommitTurn(fmt.Sprintf("w%d q%d", g, j),
							dialogue.IntentQuery, fmt.Sprintf("a%d", j), 0.8)
						return st.CommitTurn(e)
					})
					if commitErr != nil {
						t.Errorf("worker %d: %v", g, commitErr)
						return
					}
				}
				if _, status := st.Get(e.ID); status != Found {
					t.Errorf("worker %d: own session %v", g, status)
				}
				if _, err := st.SweepIdle(); err != nil {
					t.Errorf("worker %d sweep: %v", g, err)
				}
				ids[g] = append(ids[g], e.ID)
			}
		}(g)
	}
	wg.Wait()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(Config{Dir: dir, Shards: 8, TTL: time.Hour, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	for g := range ids {
		for _, id := range ids[g] {
			e, status := st2.Get(id)
			if status != Found {
				t.Fatalf("session %s lost across restart: %v", id, status)
			}
			tr := transcriptOf(t, e)
			if n := strings.Count(tr, "\n"); n != 6 {
				t.Fatalf("session %s recovered %d turns, want 6:\n%s", id, n, tr)
			}
		}
	}
}

func TestNewMemoryIsEphemeral(t *testing.T) {
	st := NewMemory(Config{})
	e, err := st.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	commitErr := e.Do(func(sess *dialogue.Session) error {
		sess.CommitTurn("q", dialogue.IntentQuery, "a", 0.9)
		return st.CommitTurn(e)
	})
	if commitErr != nil {
		t.Fatal(commitErr)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCommitWithoutPairErrors(t *testing.T) {
	st := NewMemory(Config{})
	e, err := st.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	if cerr := e.Do(func(*dialogue.Session) error { return st.CommitTurn(e) }); cerr == nil {
		t.Fatal("CommitTurn on empty transcript must error")
	}
}

// TestMemoryOnlyStoreHeap bounds what a memory-only store holds after
// 48 sessions × 8 pairs at the default cadence. No benchmark workload
// runs such a node, so this is the only measure of it. Go 1.24,
// linux/amd64: before every store kept versions it held 282 864 bytes
// (the sessions and the retained replication tail); with its version
// store it held 894 192 — the per-pair turns chunks, session nodes and
// commits of every session root, 3.2 times as much — and since session
// nodes and commits spell their refs as bytes it holds 799 544. The
// bound is that plus a quarter.
func TestMemoryOnlyStoreHeap(t *testing.T) {
	const bound = 799_544 * 5 / 4
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	st := NewMemory(Config{})
	var entries []*Entry
	for i := 0; i < 48; i++ {
		e, err := st.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, e)
	}
	for j := 0; j < 8; j++ {
		for _, e := range entries {
			err := e.Do(func(sess *dialogue.Session) error {
				sess.CommitTurn(fmt.Sprintf("how many employment where canton is Zurich in round %d of %s", j, e.ID), dialogue.IntentQuery,
					fmt.Sprintf("There are %d rows of employment matching Zurich.", 100*j), 0.5)
				return st.CommitTurn(e)
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	grown := int64(heap()) - int64(before)
	runtime.KeepAlive(st)
	t.Logf("memory-only store: heap grew %d bytes over 48 sessions × 8 pairs (bound %d)", grown, bound)
	if grown > bound {
		t.Fatalf("memory-only store holds %d bytes after 48 × 8, bound %d", grown, bound)
	}
}
