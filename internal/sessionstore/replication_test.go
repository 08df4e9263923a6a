package sessionstore

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
)

// shipAll drains every shard of src into dst until both cursors
// match, using batches of at most max frames (0: unbounded).
func shipAll(t *testing.T, src, dst *Store, max int) {
	t.Helper()
	for shard := 0; shard < src.Shards(); shard++ {
		for {
			b, err := src.PullFrames(shard, dst.ReplicationCursor(shard), max)
			if err != nil {
				t.Fatalf("pull shard %d: %v", shard, err)
			}
			if b.Empty() {
				break
			}
			applyShipped(t, src, dst, b)
		}
	}
}

// applyShipped applies b on dst, first moving the chunks of its shard
// root from src when dst lacks them — the driver's negotiation.
func applyShipped(t *testing.T, src, dst *Store, b ShipBatch) {
	t.Helper()
	err := dst.ApplyBatch(b)
	var missing *MissingChunksError
	if errors.As(err, &missing) {
		if _, err := dst.Versions().PullFrom(src.Versions(), missing.Root, 16); err != nil {
			t.Fatalf("negotiate shard %d root: %v", b.Shard, err)
		}
		err = dst.ApplyBatch(b)
	}
	if err != nil {
		t.Fatalf("apply shard %d: %v", b.Shard, err)
	}
}

// assertMirrors checks every live session of src renders the
// byte-identical transcript on dst.
func assertMirrors(t *testing.T, src, dst *Store, ids []string) {
	t.Helper()
	for _, id := range ids {
		pe, status := src.Get(id)
		if status != Found {
			t.Fatalf("primary lost session %s (%v)", id, status)
		}
		re, status := dst.Get(id)
		if status != Found {
			t.Fatalf("replica missing session %s (%v)", id, status)
		}
		if p, r := transcriptOf(t, pe), transcriptOf(t, re); p != r {
			t.Errorf("session %s diverged:\nprimary: %sreplica: %s", id, p, r)
		}
	}
}

func TestShipFramesByteIdenticalReplica(t *testing.T) {
	primary, err := Open(Config{Dir: t.TempDir(), Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	replica, err := Open(Config{Dir: t.TempDir(), Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 6; i++ {
		e, err := primary.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, e.ID)
		for j := 0; j <= i%3; j++ {
			commitPair(t, primary, e,
				fmt.Sprintf("question %d-%d", i, j),
				fmt.Sprintf("answer %d", 10*i+j),
				0.25+float64(j)/13)
		}
	}
	shipAll(t, primary, replica, 3)
	assertMirrors(t, primary, replica, ids)
	for shard := 0; shard < primary.Shards(); shard++ {
		if p, r := primary.ReplicationCursor(shard), replica.ReplicationCursor(shard); p != r {
			t.Errorf("shard %d cursor primary=%d replica=%d", shard, p, r)
		}
		if lag := replica.ReplicationLag(shard); lag != 0 {
			t.Errorf("caught-up replica lag = %d on shard %d", lag, shard)
		}
	}
	// Re-applying an old batch is a no-op (Seq idempotence).
	b, err := primary.PullFrames(primary.ShardIndex(ids[0]), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !b.Empty() {
		if err := replica.ApplyBatch(b); err != nil {
			t.Fatalf("re-apply: %v", err)
		}
	}
	assertMirrors(t, primary, replica, ids)
	if err := errors.Join(primary.Close(), replica.Close()); err != nil {
		t.Fatal(err)
	}
}

// TestShipSnapshotFallback compacts the primary past the replica's
// cursor so the pull must fall back from frames to the shard root, then
// resumes frame shipping on top of it.
func TestShipSnapshotFallback(t *testing.T) {
	primary, err := Open(Config{Dir: t.TempDir(), Shards: 1, SnapshotEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	replica, err := Open(Config{Dir: t.TempDir(), Shards: 1, SnapshotEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	e, err := primary.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 9; j++ { // > 2 compaction cadences on shard 0
		commitPair(t, primary, e, fmt.Sprintf("q%d", j), fmt.Sprintf("a%d", j), 0.5)
	}
	b, err := primary.PullFrames(0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if b.SnapshotRoot == "" {
		t.Fatalf("expected the shard root (cursor 0 behind compaction horizon), got %d frames", len(b.Frames))
	}
	applyShipped(t, primary, replica, b)
	// More commits after the snapshot: shipped as plain frames.
	commitPair(t, primary, e, "q-post", "a-post", 0.75)
	shipAll(t, primary, replica, 0)
	assertMirrors(t, primary, replica, []string{e.ID})

	// The replica's durable state holds the cursor: reopen and keep
	// shipping without a resync.
	if err := replica.Close(); err != nil {
		t.Fatal(err)
	}
	dir := replica.cfg.Dir
	replica2, err := Open(Config{Dir: dir, Shards: 1, SnapshotEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := replica2.ReplicationCursor(0), primary.ReplicationCursor(0); got != want {
		t.Fatalf("reopened replica cursor = %d, want %d", got, want)
	}
	commitPair(t, primary, e, "q-final", "a-final", 0.9)
	shipAll(t, primary, replica2, 0)
	assertMirrors(t, primary, replica2, []string{e.ID})
	if err := errors.Join(primary.Close(), replica2.Close()); err != nil {
		t.Fatal(err)
	}
}

func TestApplyBatchRejectsGapsAndCorruption(t *testing.T) {
	primary := NewMemory(Config{Shards: 1})
	replica := NewMemory(Config{Shards: 1})
	e, err := primary.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 3; j++ {
		commitPair(t, primary, e, fmt.Sprintf("q%d", j), "a", 0.5)
	}
	b, err := primary.PullFrames(0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Drop the first frame: the rest no longer extends cursor 0.
	gap := b
	gap.Frames = b.Frames[1:]
	if err := replica.ApplyBatch(gap); !errors.Is(err, ErrReplicaGap) {
		t.Fatalf("gap apply error = %v, want ErrReplicaGap", err)
	}
	// Corrupt a frame body: the CRC scan must reject it.
	bad := b
	bad.Frames = []Frame{{Seq: 1, Data: append([]byte{}, b.Frames[0].Data...)}}
	bad.Frames[0].Data[len(bad.Frames[0].Data)-1] ^= 0x5A
	if err := replica.ApplyBatch(bad); err == nil {
		t.Fatal("corrupt frame applied without error")
	}
	// The intact batch still applies cleanly afterwards.
	if err := replica.ApplyBatch(b); err != nil {
		t.Fatal(err)
	}
	assertMirrors(t, primary, replica, []string{e.ID})
	// A cursor ahead of the primary is refused, not rewound.
	if _, err := primary.PullFrames(0, primary.ReplicationCursor(0)+1, 0); err == nil {
		t.Fatal("pull from a future cursor succeeded")
	}
}

func TestNewSessionWithID(t *testing.T) {
	st := NewMemory(Config{Shards: 4})
	e, err := st.NewSessionWithID("c000042")
	if err != nil {
		t.Fatal(err)
	}
	if e.ID != "c000042" {
		t.Fatalf("id = %q", e.ID)
	}
	if _, err := st.NewSessionWithID("c000042"); !errors.Is(err, ErrSessionExists) {
		t.Fatalf("duplicate id error = %v, want ErrSessionExists", err)
	}
	if _, err := st.NewSessionWithID(""); err == nil {
		t.Fatal("empty id accepted")
	}
	if _, status := st.Get("c000042"); status != Found {
		t.Fatalf("lookup status = %v", status)
	}
}

// TestPromotedReplicaAllocatesFreshIDs pins the promotion contract: a
// replica that has applied the primary's records never re-issues a
// session number the primary already handed out.
func TestPromotedReplicaAllocatesFreshIDs(t *testing.T) {
	primary := NewMemory(Config{Shards: 2})
	replica := NewMemory(Config{Shards: 2})
	seen := map[string]bool{}
	for i := 0; i < 5; i++ {
		e, err := primary.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		seen[e.ID] = true
	}
	shipAll(t, primary, replica, 0)
	for i := 0; i < 5; i++ {
		e, err := replica.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		if seen[e.ID] {
			t.Fatalf("promoted replica re-issued id %s", e.ID)
		}
	}
}

// TestReplicationLagTracksPrimaryCursor drives a replica that applies
// a batch while the primary keeps committing: lag reflects the
// primary cursor stamped on the last applied batch.
func TestReplicationLagTracksPrimaryCursor(t *testing.T) {
	primary := NewMemory(Config{Shards: 1})
	replica := NewMemory(Config{Shards: 1})
	e, err := primary.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	commitPair(t, primary, e, "q0", "a0", 0.5)
	shipAll(t, primary, replica, 0)
	commitPair(t, primary, e, "q1", "a1", 0.5)
	commitPair(t, primary, e, "q2", "a2", 0.5)
	// Pull one frame of the two outstanding: the batch carries the
	// primary's full cursor, so lag = 1 after applying it.
	b, err := primary.PullFrames(0, replica.ReplicationCursor(0), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := replica.ApplyBatch(b); err != nil {
		t.Fatal(err)
	}
	if lag := replica.ReplicationLag(0); lag != 1 {
		t.Fatalf("mid-catch-up lag = %d, want 1", lag)
	}
	shipAll(t, primary, replica, 0)
	if lag := replica.ReplicationLag(0); lag != 0 {
		t.Fatalf("caught-up lag = %d, want 0", lag)
	}
	if lag := primary.ReplicationLag(0); lag != 0 {
		t.Fatalf("primary lag = %d, want 0", lag)
	}
}

// TestReplicaAsOfAfterBatchedCatchUp: a replica that caught up in one
// batch carrying several turns of one session has one version per pair,
// as the primary does — the trees the primary has, since a tree is a
// function of the transcript — and serves every as-of read.
func TestReplicaAsOfAfterBatchedCatchUp(t *testing.T) {
	primary := NewMemory(Config{Shards: 1})
	replica := NewMemory(Config{Shards: 1})
	var ids []string
	want := map[string][]string{} // id → transcript after each pair
	for i := 0; i < 2; i++ {
		e, err := primary.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, e.ID)
		for j := 0; j < 3; j++ {
			commitPair(t, primary, e, fmt.Sprintf("question %d-%d", i, j), fmt.Sprintf("answer %d", 10*i+j), 0.25+float64(j)/13)
			want[e.ID] = append(want[e.ID], transcriptOf(t, e))
		}
	}
	b, err := primary.PullFrames(0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Frames) != 8 || b.SnapshotRoot != "" {
		t.Fatalf("pull = %d frames (root %q), want the 8 records as frames", len(b.Frames), b.SnapshotRoot)
	}
	for round := 0; round < 2; round++ { // applied, then re-applied: nothing changes
		if err := replica.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
		if err := replica.DeferredError(0); err != nil {
			t.Fatal(err)
		}
		assertMirrors(t, primary, replica, ids)
		for _, id := range ids {
			plog, err := primary.Versions().Log(SessionRoot(id))
			if err != nil {
				t.Fatal(err)
			}
			rlog, err := replica.Versions().Log(SessionRoot(id))
			if err != nil {
				t.Fatal(err)
			}
			if len(rlog) != 3 || !reflect.DeepEqual(versionEntries(rlog), versionEntries(plog)) {
				t.Fatalf("round %d: replica's version log of %s (turn, tree):\n got: %v\nwant: %v", round, id, versionEntries(rlog), versionEntries(plog))
			}
			for j, transcript := range want[id] {
				sess, c, err := replica.TranscriptAsOf(id, 2*(j+1))
				if err != nil {
					t.Fatalf("round %d: replica's %s as of turn %d: %v", round, id, 2*(j+1), err)
				}
				if c.Turn != 2*(j+1) || Transcript(sess) != transcript {
					t.Fatalf("round %d: replica's %s as of turn %d = commit at turn %d:\n got: %q\nwant: %q", round, id, 2*(j+1), c.Turn, Transcript(sess), transcript)
				}
			}
		}
	}
}

// TestApplyBatchIsOneWALAppend: a catch-up batch is judged whole, then
// lands in the replica's WAL with one append — one fsync — however many
// frames it carries; a bad frame anywhere in it appends and replays
// nothing, and so does a batch the replica already holds.
func TestApplyBatchIsOneWALAppend(t *testing.T) {
	primary := NewMemory(Config{Shards: 1, SnapshotEvery: 1 << 20})
	e, err := primary.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 49; j++ {
		commitPair(t, primary, e, fmt.Sprintf("q%d", j), fmt.Sprintf("a%d", j), 0.5)
	}
	b, err := primary.PullFrames(0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Frames) != 50 {
		t.Fatalf("pull = %d frames, want 50", len(b.Frames))
	}
	wal := &journalProbe{}
	replica, err := Open(Config{Dir: t.TempDir(), Shards: 1, SnapshotEvery: 1 << 20, Faults: wal})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := replica.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	untouched := func(when string) {
		t.Helper()
		if wal.appends != 0 || replica.ReplicationCursor(0) != 0 || replica.Len() != 0 || replica.shards[0].wal.Size() != 0 {
			t.Fatalf("%s: %d WAL appends, cursor %d, %d sessions, %d WAL bytes; want nothing of the batch", when,
				wal.appends, replica.ReplicationCursor(0), replica.Len(), replica.shards[0].wal.Size())
		}
	}
	for _, at := range []int{0, 25, 49} {
		bad := b
		bad.Frames = append([]Frame(nil), b.Frames...)
		data := append([]byte(nil), b.Frames[at].Data...)
		data[len(data)-1] ^= 0x5A
		bad.Frames[at].Data = data
		if err := replica.ApplyBatch(bad); err == nil {
			t.Fatalf("batch with a corrupt frame at %d applied", at)
		}
		untouched(fmt.Sprintf("corrupt frame at %d", at))
	}
	gap := b
	gap.Frames = append(append([]Frame(nil), b.Frames[:25]...), b.Frames[26:]...)
	if err := replica.ApplyBatch(gap); !errors.Is(err, ErrReplicaGap) {
		t.Fatalf("batch missing frame 25: err = %v, want ErrReplicaGap", err)
	}
	untouched("frame 25 missing")

	if err := replica.ApplyBatch(b); err != nil {
		t.Fatal(err)
	}
	if wal.appends != 1 || replica.ReplicationCursor(0) != 50 {
		t.Fatalf("a 50-frame batch: %d WAL appends, cursor %d; want 1 and 50", wal.appends, replica.ReplicationCursor(0))
	}
	if err := replica.ApplyBatch(b); err != nil {
		t.Fatal(err)
	}
	if wal.appends != 1 {
		t.Fatalf("re-applying a held batch made %d WAL appends", wal.appends-1)
	}
	assertMirrors(t, primary, replica, []string{e.ID})
}
