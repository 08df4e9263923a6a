package sessionstore

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"github.com/reliable-cda/cda/internal/dialogue"
)

// formatFixtureUnversioned is formatScript replayed by the commit before
// every store kept versions, into a store opened without one: the shard
// WALs and shard-01.snap — the same bytes as format-v2's — and no
// vstore directory.
const formatFixtureUnversioned = "testdata/format-unversioned"

// TestOpenUpgradesSnapshots opens every fixture directory an older
// store wrote, each with a shard-01.snap beside its WALs: the script's
// transcripts are served, the snapshot is gone, the shard root's head
// sits at the snapshot's horizon, every turn from a session's first
// version on reads back as of that turn, each session takes its next
// turn, and a second open finds nothing left to upgrade.
func TestOpenUpgradesSnapshots(t *testing.T) {
	for _, fx := range []struct {
		fixture string
		script  []formatTurn
	}{
		{formatFixtureUnversioned, formatScript()},
		{formatFixture, formatScript()},
		{formatFixtureV2, formatScript()},
		{formatFixtureV3, formatScript()},
		{treeFixtureV2, treeScript()},
		{treeFixtureV3, treeScript()},
	} {
		t.Run(filepath.Base(fx.fixture), func(t *testing.T) {
			dir := copyFixture(t, fx.fixture)
			snapPath := filepath.Join(dir, "shard-01.snap")
			doc, err := readSnapshot(snapPath)
			if err != nil || doc == nil {
				t.Fatalf("fixture snapshot: %v, %v", doc, err)
			}
			st, err := Open(Config{Dir: dir, Shards: 2, SnapshotEvery: 8})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := os.Stat(snapPath); !os.IsNotExist(err) {
				t.Fatalf("shard-01.snap survived the open (stat err %v)", err)
			}
			if head, err := st.Versions().Head(ShardRoot(1)); err != nil || int64(head.Turn) != doc.ShipSeq {
				t.Fatalf("shard 1 root head = %+v, %v; want one at the snapshot's horizon %d", head, err, doc.ShipSeq)
			}
			transcripts := scriptTranscripts(fx.script)
			for id, want := range transcripts {
				e, status := st.Get(id)
				if status != Found || transcriptOf(t, e) != want {
					t.Fatalf("session %s: status %v, transcript %q; want %q", id, status, transcriptOf(t, e), want)
				}
				requireAsOfFromFirstVersion(t, st, id, want, fx.fixture != formatFixtureUnversioned)
				commitPair(t, st, e, "one more", "answer", 0.5)
				transcripts[id] = transcriptOf(t, e)
			}
			for shard := 0; shard < 2; shard++ {
				if err := st.DeferredError(shard); err != nil {
					t.Fatal(err)
				}
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			st, err = Open(Config{Dir: dir, Shards: 2, SnapshotEvery: 8})
			if err != nil {
				t.Fatalf("second open: %v", err)
			}
			defer func() {
				if err := st.Close(); err != nil {
					t.Errorf("close: %v", err)
				}
			}()
			for id, want := range transcripts {
				e, status := st.Get(id)
				if status != Found || transcriptOf(t, e) != want {
					t.Fatalf("second open: session %s: status %v, transcript %q; want %q", id, status, transcriptOf(t, e), want)
				}
				requireAsOfFromFirstVersion(t, st, id, want, fx.fixture != formatFixtureUnversioned)
			}
		})
	}
}

// requireAsOfFromFirstVersion requires a version at every pair from the
// session's first one on, each reading back as exactly that prefix of
// transcript. A store that kept versions had one from the first pair;
// one that did not has them from what its snapshot or WAL held on.
func requireAsOfFromFirstVersion(t *testing.T, st *Store, id, transcript string, fromFirstPair bool) {
	t.Helper()
	log, err := st.SessionVersions(id)
	if err != nil || len(log) == 0 {
		t.Fatalf("session %s versions: %d, %v", id, len(log), err)
	}
	first := log[0].Turn
	if fromFirstPair && first != 2 {
		t.Fatalf("session %s: first version at turn %d, want 2", id, first)
	}
	for turn := first; turn <= len(log)*2+first-2; turn += 2 {
		sess, c, err := st.TranscriptAsOf(id, turn)
		if err != nil || c.Turn != turn || Transcript(sess) != turnPrefix(transcript, turn) {
			t.Fatalf("session %s as of turn %d = commit at %d, %v; want that prefix of %q", id, turn, c.Turn, err, transcript)
		}
	}
	if last := log[len(log)-1].Turn; turnPrefix(transcript, last) != transcript {
		t.Fatalf("session %s: last version at turn %d, short of the transcript", id, last)
	}
}

// TestMemoryOnlyStoreHeap bounds what a memory-only store holds after
// 48 sessions × 8 pairs at the default cadence. No benchmark workload
// runs such a node, so this is the only measure of it. Go 1.24,
// linux/amd64: before every store kept versions it held 282 864 bytes
// (the sessions and the retained replication tail); with its version
// store it holds 894 192 — the per-pair turns chunks, session nodes and
// commits of every session root, 3.2 times as much. The bound is that
// plus a quarter.
func TestMemoryOnlyStoreHeap(t *testing.T) {
	const bound = 894_192 * 5 / 4
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
