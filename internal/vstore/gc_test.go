package vstore

import (
	"fmt"
	"io"
	"sync"
	"testing"

	"github.com/reliable-cda/cda/internal/faults"
	"github.com/reliable-cda/cda/internal/framelog"
	"github.com/reliable-cda/cda/internal/resilience"
	"github.com/reliable-cda/cda/internal/storage"
)

func TestGCCollectsOrphansKeepsReachable(t *testing.T) {
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
	db := demoDB(300)
	c, err := s.CommitDatabase("db/main", db, 0)
	if err != nil {
		t.Fatalf("commit: %v", err)
	}
	live, err := s.Closure(c.Hash)
	if err != nil {
		t.Fatalf("closure: %v", err)
	}
	// Orphans: chunks never referenced by any root.
	var orphans []Hash
	for i := 0; i < 5; i++ {
		orphans = append(orphans, mustPut(t, s, "leaf", nil, fmt.Sprintf(`["orphan-%d"]`, i)))
	}
	stats, err := s.GC()
	if err != nil {
		t.Fatalf("GC: %v", err)
	}
	if stats.Swept != len(orphans) {
		t.Fatalf("swept %d, want %d", stats.Swept, len(orphans))
	}
	if stats.Live != len(live) {
		t.Fatalf("live %d, want %d", stats.Live, len(live))
	}
	for _, h := range orphans {
		if s.Has(h) {
			t.Fatalf("orphan %s survived", h)
		}
	}
	if _, err := s.MaterializeDatabase(c.Tree); err != nil {
		t.Fatalf("materialize after GC: %v", err)
	}
	requireReopensEqual(t, dir, s)

	// The pack rewrite must survive a reopen with only live chunks.
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	r, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer func() {
		if err := r.Close(); err != nil {
			t.Errorf("close reopened: %v", err)
		}
	}()
	if n := r.NumChunks(); n != len(live) {
		t.Fatalf("reopened with %d chunks, want %d", n, len(live))
	}
	if _, err := r.MaterializeDatabase(c.Tree); err != nil {
		t.Fatalf("materialize after reopen: %v", err)
	}
}

// TestGCCheckpointKeepsEveryRootLog drives the root records a journal
// can hold — appends, a truncation, a deletion, and the checkpoint a
// GC rewrite ends on — and after each requires a second open of the
// directory to rebuild every root's full log, and the stamp sequence
// to go on past a commit the checkpoint no longer lists.
func TestGCCheckpointKeepsEveryRootLog(t *testing.T) {
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
	commit := func(s *Store, root string, turn int) Commit {
		t.Helper()
		b := s.NewBatch(nil)
		tree, err := b.Put("db", nil, []byte(fmt.Sprintf(`{"root":%q,"turn":%d}`, root, turn)))
		if err != nil {
			t.Fatal(err)
		}
		c, err := b.Commit(root, tree, turn)
		if err != nil {
			t.Fatalf("commit %s@%d: %v", root, turn, err)
		}
		return c
	}
	for turn := 0; turn < 3; turn++ {
		commit(s, "a", turn)
		commit(s, "b", turn)
	}
	last := commit(s, "c", 0) // the highest stamp, on the root about to go
	requireReopensEqual(t, dir, s)
	if err := s.TruncateLog("a", 2); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteRoot("c"); err != nil {
		t.Fatal(err)
	}
	requireReopensEqual(t, dir, s)

	stats, err := s.GC()
	if err != nil {
		t.Fatalf("GC: %v", err)
	}
	// a's trimmed commit and tree, c's commit and tree.
	if stats.Swept != 4 {
		t.Fatalf("swept %d chunks, want 4; stats=%+v", stats.Swept, stats)
	}
	requireReopensEqual(t, dir, s)
	if logs := allLogs(t, s); len(logs) != 2 || len(logs["a"]) != 2 || len(logs["b"]) != 3 {
		t.Fatalf("logs after GC = %+v, want a×2 and b×3", logs)
	}

	// Appends after the rewrite land in the rewritten journal.
	commit(s, "b", 3)
	requireReopensEqual(t, dir, s)
	r, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := r.Close(); err != nil {
			t.Errorf("close reopened: %v", err)
		}
	}()
	if c := commit(r, "a", 3); c.Stamp <= last.Stamp+1 {
		t.Fatalf("stamp %d after reopen does not continue past %d (deleted root) + 1", c.Stamp, last.Stamp)
	}
}

func TestGCSparesDeleteRootThenRecommit(t *testing.T) {
	s := NewMemory()
	db := demoDB(50)
	c, err := s.CommitDatabase("db/a", db, 0)
	if err != nil {
		t.Fatalf("commit: %v", err)
	}
	if err := s.DeleteRoot("db/a"); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if _, err := s.GC(); err != nil {
		t.Fatalf("GC: %v", err)
	}
	if s.Has(c.Tree) {
		t.Fatalf("unreferenced tree survived GC")
	}
	// Re-encoding after collection rebuilds the same addresses.
	c2, err := s.CommitDatabase("db/a", db, 0)
	if err != nil {
		t.Fatalf("recommit: %v", err)
	}
	if c2.Tree != c.Tree {
		t.Fatalf("content address changed across GC: %s vs %s", c.Tree, c2.Tree)
	}
}

// gateHook blocks GC between its mark and sweep phases so a test can
// interleave a commit at exactly the dangerous point.
type gateHook struct {
	markDone chan struct{} // closed when GC finishes marking
	release  chan struct{} // GC sweeps only after this closes
	once     sync.Once
}

func (g *gateHook) Inject(op string) error {
	if op == "vstore.gc.sweep" {
		g.once.Do(func() { close(g.markDone) })
		<-g.release
	}
	return nil
}

// TestGCConcurrentCommitMidSweep is the satellite gate: a root
// published after the mark phase snapshot — whose tree re-uses chunks
// that were unreachable when marking ran — must keep its full closure.
func TestGCConcurrentCommitMidSweep(t *testing.T) {
	gate := &gateHook{markDone: make(chan struct{}), release: make(chan struct{})}
	s, err := Open(Config{Faults: gate})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	db := demoDB(300)
	// Encode the tree but do NOT commit it: at mark time every one of
	// its chunks is an unreachable candidate.
	tree, err := encodeDatabase(s, db)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}

	done := make(chan GCStats, 1)
	go func() {
		stats, gerr := s.GC()
		if gerr != nil {
			t.Errorf("GC: %v", gerr)
		}
		done <- stats
	}()

	<-gate.markDone
	// Mark is complete and found nothing; publish the root now.
	c, err := s.Commit("db/raced", tree, 0)
	if err != nil {
		t.Fatalf("commit mid-sweep: %v", err)
	}
	close(gate.release)
	stats := <-done

	if stats.Rescans == 0 {
		t.Fatalf("sweep did not re-scan the newly published head; stats=%+v", stats)
	}
	if stats.Swept != 0 {
		t.Fatalf("sweep collected %d chunks of a published root", stats.Swept)
	}
	if !s.HasClosure(c.Hash) {
		t.Fatalf("closure of the mid-sweep commit is incomplete")
	}
	if _, err := s.MaterializeDatabase(c.Tree); err != nil {
		t.Fatalf("materialize after racing GC: %v", err)
	}
}

// TestGCEpochBarrierSparesInFlightEncode covers the other half of the
// race: chunks stored mid-sweep whose root is committed only after GC
// finishes. The epoch write barrier must spare them even though no
// root reaches them during the sweep.
func TestGCEpochBarrierSparesInFlightEncode(t *testing.T) {
	gate := &gateHook{markDone: make(chan struct{}), release: make(chan struct{})}
	s, err := Open(Config{Faults: gate})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	// Seed one orphan BEFORE the sweep epoch so the sweep has real work.
	orphan := mustPut(t, s, "leaf", nil, `["pre-sweep orphan"]`)

	done := make(chan GCStats, 1)
	go func() {
		stats, gerr := s.GC()
		if gerr != nil {
			t.Errorf("GC: %v", gerr)
		}
		done <- stats
	}()

	<-gate.markDone
	// Encode a tree between mark and sweep; commit only after GC ends.
	db := demoDB(300)
	tree, err := encodeDatabase(s, db)
	if err != nil {
		t.Fatalf("encode mid-sweep: %v", err)
	}
	close(gate.release)
	stats := <-done

	if stats.Swept != 1 || s.Has(orphan) {
		t.Fatalf("pre-sweep orphan not collected exactly: stats=%+v has=%v", stats, s.Has(orphan))
	}
	if stats.Spared == 0 {
		t.Fatalf("epoch barrier spared nothing; stats=%+v", stats)
	}
	c, err := s.Commit("db/late", tree, 0)
	if err != nil {
		t.Fatalf("commit after GC: %v", err)
	}
	if !s.HasClosure(c.Hash) {
		t.Fatalf("in-flight encode lost chunks to the sweep")
	}
	if _, err := s.MaterializeDatabase(tree); err != nil {
		t.Fatalf("materialize: %v", err)
	}
}

// TestGCUnderConcurrentCommitSeeded hammers GC against committers and
// readers under the race detector with seeded fault-injector
// interleavings (latency faults on vstore ops shift the phase
// boundaries run to run, but each seed is deterministic). The store is
// dir-backed, so the readers of a pinned version — Data, PacketOf,
// MaterializeDatabase: every path that preads the journal — race the
// appends and the collector's file swap, and every packet they get
// must hash to the address they asked for: before, during and after
// the rewrites, and from a second open of the directory.
func TestGCUnderConcurrentCommitSeeded(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			inj := faults.New(faults.Config{
				Seed: seed,
				PerBackend: map[string]faults.Rates{
					"vstore": {Latency: 0.5},
				},
			}, resilience.NewWallClock())
			dir := t.TempDir()
			s, err := Open(Config{Dir: dir, Faults: inj})
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			defer func() {
				if err := s.Close(); err != nil {
					t.Errorf("close: %v", err)
				}
			}()
			const pinnedRows = 600
			pin, err := s.CommitDatabase("db/pinned", demoDB(pinnedRows), 0)
			if err != nil {
				t.Fatal(err)
			}
			pinned, err := s.Closure(pin.Hash)
			if err != nil {
				t.Fatal(err)
			}

			const writers = 3
			const commitsPerWriter = 8
			const readers = 2
			var wg, rg sync.WaitGroup
			errs := make(chan error, writers+readers+1)
			for w := 0; w < writers; w++ {
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					db := demoDB(200 + w)
					tab, gerr := db.Get("metrics")
					if gerr != nil {
						errs <- gerr
						return
					}
					root := fmt.Sprintf("db/w%d", w)
					for k := 0; k < commitsPerWriter; k++ {
						if serr := tab.Set((k*17+w)%tab.NumRows(), 2, storage.Float(float64(seed)+float64(k))); serr != nil {
							errs <- fmt.Errorf("writer %d edit %d: %w", w, k, serr)
							return
						}
						if _, cerr := s.CommitDatabase(root, db, k); cerr != nil {
							errs <- fmt.Errorf("writer %d commit %d: %w", w, k, cerr)
							return
						}
						// An orphan per commit: work for the sweep, so that
						// the journal really is rewritten under the readers.
						if _, perr := s.Put("leaf", nil, []byte(fmt.Sprintf(`["orphan %d/%d"]`, w, k))); perr != nil {
							errs <- fmt.Errorf("writer %d orphan %d: %w", w, k, perr)
							return
						}
					}
				}()
			}
			swept := 0
			wg.Add(1)
			go func() {
				defer wg.Done()
				// The first round to start after an orphan's epoch sweeps.
				for i := 0; i < 6 || (swept == 0 && i < 1000); i++ {
					stats, gerr := s.GC()
					if gerr != nil {
						errs <- fmt.Errorf("GC round %d: %w", i, gerr)
						return
					}
					swept += stats.Swept
				}
			}()
			stop := make(chan struct{})
			passes := make([]int, readers)
			for r := 0; r < readers; r++ {
				r := r
				rg.Add(1)
				go func() {
					defer rg.Done()
					for {
						for _, h := range pinned {
							pk, rerr := s.PacketOf(h)
							if rerr == nil && hashBytes(pk.Data) != h {
								rerr = fmt.Errorf("reads back as %s", hashBytes(pk.Data))
							}
							if rerr == nil {
								_, _, rerr = s.Data(h)
							}
							if rerr != nil {
								errs <- fmt.Errorf("reader %d: chunk %s: %w", r, h, rerr)
								return
							}
						}
						db, rerr := s.MaterializeDatabase(pin.Hash)
						if rerr == nil {
							var tab *storage.Table
							if tab, rerr = db.Get("metrics"); rerr == nil && tab.NumRows() != pinnedRows {
								rerr = fmt.Errorf("%d rows, want %d", tab.NumRows(), pinnedRows)
							}
						}
						if rerr != nil {
							errs <- fmt.Errorf("reader %d: materialize: %w", r, rerr)
							return
						}
						passes[r]++
						select {
						case <-stop:
							return
						default:
						}
					}
				}()
			}
			wg.Wait()
			close(stop)
			rg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			if swept == 0 {
				t.Fatal("no round swept anything: the journal was never rewritten under the readers")
			}
			for r, n := range passes {
				if n == 0 {
					t.Fatalf("reader %d never completed a pass", r)
				}
			}

			// Every committed version of every root must still be fully
			// materializable — no reachable chunk was ever collected —
			// here and from a second open of the directory.
			requireVersions := func(s *Store) {
				t.Helper()
				for _, root := range s.Roots() {
					log, err := s.Log(root)
					if err != nil {
						t.Fatalf("log %s: %v", root, err)
					}
					for _, c := range log {
						if !s.HasClosure(c.Hash) {
							t.Fatalf("root %s commit turn %d lost chunks", root, c.Turn)
						}
						if _, err := s.MaterializeDatabase(c.Tree); err != nil {
							t.Fatalf("root %s turn %d materialize: %v", root, c.Turn, err)
						}
					}
				}
				requirePacketsRehash(t, s)
			}
			requireVersions(s)
			requireReopensEqual(t, dir, s)
			r, err := Open(Config{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				if err := r.Close(); err != nil {
					t.Errorf("close reopened: %v", err)
				}
			}()
			requireVersions(r)
		})
	}
}

// TestRewriteThatFailedAfterItsRename covers the failure the process
// cannot be made to suffer for real — the directory fsync after the
// rename — by doing what it leaves behind: the file swapped for one
// with every chunk somewhere else, and a Rewrite that says it failed.
// Equal-length leaves make stale offsets land on other chunks' intact
// frames, which a checksum alone would accept.
func TestRewriteThatFailedAfterItsRename(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	b := s.NewBatch(nil)
	var leaves []Hash
	for i := 0; i < 8; i++ {
		h, err := b.Put("leaf", nil, []byte(fmt.Sprintf(`[%d]`, i)))
		if err != nil {
			t.Fatal(err)
		}
		leaves = append(leaves, h)
	}
	tree, err := b.Put("db", leaves, nil)
	if err != nil {
		t.Fatal(err)
	}
	c, err := b.Commit("db/main", tree, 0)
	if err != nil {
		t.Fatal(err)
	}

	// The journal as a rewrite lays it out, but with the chunks in
	// reverse order: each a frame of its own, the root record last.
	var hashes []Hash
	for _, h := range append(leaves, tree, c.Hash) {
		hashes = append([]Hash{h}, hashes...)
	}
	var swapped []byte
	var moved []chunk
	for _, h := range hashes {
		p, err := s.PacketOf(h)
		if err != nil {
			t.Fatal(err)
		}
		moved = append(moved, chunk{off: int64(len(swapped)), n: len(p.Data)})
		swapped = append(swapped, framelog.Encode(packMagic, p.Data)...)
	}
	set, err := setPayload("db/main", []Hash{c.Hash}, c.Stamp)
	if err != nil {
		t.Fatal(err)
	}
	swapped = append(swapped, framelog.Encode(packMagic, set)...)
	swap := func() {
		t.Helper()
		if err := s.pack.Rewrite(func(w io.Writer) error {
			_, err := w.Write(swapped)
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}

	// A rewrite that failed before telling where anything went: no entry
	// may keep an offset that now holds another chunk.
	s.mu.Lock()
	swap()
	s.relocateLocked(hashes, make([]chunk, len(hashes)), false)
	s.mu.Unlock()
	served := 0
	for _, h := range hashes {
		p, err := s.PacketOf(h)
		if err == nil && hashBytes(p.Data) != h {
			t.Fatalf("chunk %s served another chunk's bytes %q from a stale offset", h, p.Data)
		}
		if err == nil {
			served++
		}
	}
	if served > 1 { // the chunk now at offset 0 verifies there
		t.Fatalf("%d chunks served without a verified offset", served)
	}

	// The same failure with the offsets the writer recorded: everything
	// reads from the new file, and the next open agrees.
	s.mu.Lock()
	s.relocateLocked(hashes, moved, false)
	s.mu.Unlock()
	requirePacketsRehash(t, s)
	if !s.HasClosure(c.Hash) || s.NumChunks() != len(hashes) {
		t.Fatalf("index lost chunks: %d of %d", s.NumChunks(), len(hashes))
	}
	if _, err := s.Commit("db/main", tree, 1); err != nil {
		t.Fatalf("commit after the failed rewrite: %v", err)
	}
	requirePacketsRehash(t, s)
	requireReopensEqual(t, dir, s)
}
