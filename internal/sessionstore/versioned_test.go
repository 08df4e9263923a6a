package sessionstore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/reliable-cda/cda/internal/dialogue"
	"github.com/reliable-cda/cda/internal/framelog"
	"github.com/reliable-cda/cda/internal/vstore"
)

// TestPullFramesAtCompactionHorizonBoundary pins the boundary between
// the snapshot-transfer and frame-shipping paths: a cursor EXACTLY at
// the compaction horizon is fully served by frames — the horizon is
// the last sequence the snapshot covers, so nothing below it is
// needed — while one record below it must get a snapshot.
func TestPullFramesAtCompactionHorizonBoundary(t *testing.T) {
	primary, err := Open(Config{Dir: t.TempDir(), Shards: 1, SnapshotEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := primary.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	e, err := primary.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 6; j++ {
		commitPair(t, primary, e, fmt.Sprintf("q%d", j), fmt.Sprintf("a%d", j), 0.5)
	}
	sh := primary.shards[0]
	sh.mu.Lock()
	horizon := sh.shipBase
	tail := len(sh.tail)
	sh.mu.Unlock()
	if horizon == 0 {
		t.Fatalf("no compaction happened; shipBase = 0")
	}
	if tail == 0 {
		// Land at least one record above the horizon so the frame path
		// has something to serve.
		commitPair(t, primary, e, "q-tail", "a-tail", 0.5)
	}

	// Exactly at the horizon: frames, starting at horizon+1.
	b, err := primary.PullFrames(0, horizon, 0)
	if err != nil {
		t.Fatal(err)
	}
	if b.SnapshotRoot != "" {
		t.Fatalf("cursor at horizon %d got the shard root", horizon)
	}
	if len(b.Frames) == 0 || b.Frames[0].Seq != horizon+1 {
		t.Fatalf("cursor at horizon: frames = %d starting %d, want first seq %d",
			len(b.Frames), b.Frames[0].Seq, horizon+1)
	}

	// One below: the shard root at the horizon, and the frames after it.
	b, err = primary.PullFrames(0, horizon-1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if b.SnapshotRoot == "" || b.SnapshotSeq != horizon || len(b.Frames) == 0 || b.Frames[0].Seq != horizon+1 {
		t.Fatalf("cursor below horizon: root %q at %d and %d frames, want the root at %d and frames from %d",
			b.SnapshotRoot, b.SnapshotSeq, len(b.Frames), horizon, horizon+1)
	}

	// A replica starting exactly at the horizon catches up by frames
	// alone and mirrors byte-identically.
	replica, err := Open(Config{Dir: t.TempDir(), Shards: 1, SnapshotEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := replica.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	full, err := primary.PullFrames(0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	applyShipped(t, primary, replica, full)
	shipAll(t, primary, replica, 0)
	assertMirrors(t, primary, replica, []string{e.ID})
}

func versionedPair(t *testing.T) (*Store, *vstore.Store) {
	t.Helper()
	vs := vstore.NewMemory()
	st, err := Open(Config{Dir: t.TempDir(), Shards: 1, SnapshotEvery: 4, Versions: vs})
	if err != nil {
		t.Fatal(err)
	}
	return st, vs
}

func TestTranscriptAsOfMaterializesEveryVersion(t *testing.T) {
	st, _ := versionedPair(t)
	defer func() {
		if err := st.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	e, err := st.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	// Capture the canonical transcript after every committed pair.
	want := map[int]string{}
	for j := 0; j < 5; j++ {
		commitPair(t, st, e, fmt.Sprintf("question %d", j), fmt.Sprintf("answer %d", j), 0.25+float64(j)/10)
		want[2*(j+1)] = transcriptOf(t, e)
	}
	log, err := st.Versions().Log(SessionRoot(e.ID))
	if err != nil {
		t.Fatal(err)
	}
	if len(log) != 5 {
		t.Fatalf("session has %d versions, want 5: %+v", len(log), log)
	}
	for turn, expect := range want {
		sess, c, err := st.TranscriptAsOf(e.ID, turn)
		if err != nil {
			t.Fatalf("TranscriptAsOf(%d): %v", turn, err)
		}
		if c.Turn != turn {
			t.Fatalf("AsOf(%d) resolved commit at turn %d", turn, c.Turn)
		}
		if got := Transcript(sess); got != expect {
			t.Fatalf("transcript at turn %d drifted:\nwant:\n%s\ngot:\n%s", turn, expect, got)
		}
	}
	// An odd cursor resolves to the version at or before it.
	sess, c, err := st.TranscriptAsOf(e.ID, 3)
	if err != nil {
		t.Fatal(err)
	}
	if c.Turn != 2 || Transcript(sess) != want[2] {
		t.Fatalf("AsOf(3) = turn %d", c.Turn)
	}
	if _, _, err := st.TranscriptAsOf("never-issued", 2); err == nil {
		t.Fatal("TranscriptAsOf on unknown session succeeded")
	}
}

// TestVersionedSnapshotShipNegotiatesChunks drives the versioned
// catch-up path end to end in-process: the pull returns the shard
// root, the first apply fails typed on missing
// chunks, negotiation ships exactly the missing closure, and the
// retried apply installs it. A later catch-up reuses the replica's
// chunks and moves only the delta.
func TestVersionedSnapshotShipNegotiatesChunks(t *testing.T) {
	primary, vsP := versionedPair(t)
	replica, vsR := versionedPair(t)
	defer func() {
		if err := errors.Join(primary.Close(), replica.Close()); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	// Several sessions: round 2 only touches the first, so the others'
	// subtrees must ship exactly once.
	var entries []*Entry
	var ids []string
	for i := 0; i < 6; i++ {
		e, err := primary.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, e)
		ids = append(ids, e.ID)
		for j := 0; j < 2; j++ {
			commitPair(t, primary, e, fmt.Sprintf("s%d q%d", i, j), fmt.Sprintf("a%d", j), 0.5)
		}
	}
	e := entries[0]

	b, err := primary.PullFrames(0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if b.SnapshotRoot == "" {
		t.Fatalf("pull below horizon: no shard root, %d frames", len(b.Frames))
	}

	var missing *MissingChunksError
	if err := replica.ApplyBatch(b); !errors.As(err, &missing) {
		t.Fatalf("apply without chunks err = %v, want MissingChunksError", err)
	}
	moved1, err := vsR.PullFrom(vsP, missing.Root, 16)
	if err != nil {
		t.Fatalf("negotiate: %v", err)
	}
	if moved1 == 0 {
		t.Fatal("negotiation moved no chunks")
	}
	if err := replica.ApplyBatch(b); err != nil {
		t.Fatalf("apply after negotiation: %v", err)
	}
	shipAll(t, primary, replica, 0)
	assertMirrors(t, primary, replica, ids)

	// The replica can itself time travel after a versioned install —
	// its log starts at install time (pre-install history stays on the
	// primary), so ask for its own head.
	rlog, err := replica.Versions().Log(SessionRoot(e.ID))
	if err != nil {
		t.Fatalf("replica session log: %v", err)
	}
	if len(rlog) == 0 {
		t.Fatal("replica has no session versions after install")
	}
	if _, _, err := replica.TranscriptAsOf(e.ID, rlog[len(rlog)-1].Turn); err != nil {
		t.Fatalf("replica TranscriptAsOf: %v", err)
	}

	// Next round: more traffic to ONE session past another compaction,
	// then catch up again. Structural sharing must make the second
	// transfer smaller — the five untouched sessions' subtrees are
	// already on the replica.
	for j := 2; j < 8; j++ {
		commitPair(t, primary, e, fmt.Sprintf("s0 q%d", j), fmt.Sprintf("a%d", j), 0.5)
	}
	b2, err := primary.PullFrames(0, replica.ReplicationCursor(0), 0)
	if err != nil {
		t.Fatal(err)
	}
	if b2.SnapshotRoot == "" {
		t.Fatalf("second catch-up did not use a snapshot root")
	}
	moved2, err := vsR.PullFrom(vsP, vstore.Hash(b2.SnapshotRoot), 16)
	if err != nil {
		t.Fatal(err)
	}
	if moved2 >= moved1 {
		t.Fatalf("second negotiation moved %d chunks, first moved %d; no structural sharing", moved2, moved1)
	}
	if err := replica.ApplyBatch(b2); err != nil {
		t.Fatal(err)
	}
	shipAll(t, primary, replica, 0)
	assertMirrors(t, primary, replica, ids)

	// Shard roots agree across stores: the replica adopted the
	// primary's commit identity.
	ph, err := vsP.Head(ShardRoot(0))
	if err != nil {
		t.Fatal(err)
	}
	rh, err := vsR.Head(ShardRoot(0))
	if err != nil {
		t.Fatal(err)
	}
	if ph.Hash != rh.Hash || ph.Tree != rh.Tree {
		t.Fatalf("shard root diverged: primary %+v replica %+v", ph, rh)
	}
}

// TestCatchUpIsNoDeeperAndShipsNoMore: the per-pair open window lists its
// chunks flat under the session node, so a snapshot catch-up descends
// commit → shard → sess → turns and no further — four have/want rounds
// for a replica that holds nothing, whether a session is mid-window,
// exactly at a fold or past one — and because the cut is a function of
// the turn count, a replica that replayed the same records has derived
// every session chunk itself: sent below the horizon again (a restarted
// router's cursor of 0 does that), it wants the shard node and its
// commit, and nothing else.
func TestCatchUpIsNoDeeperAndShipsNoMore(t *testing.T) {
	open := func() (*Store, *vstore.Store) {
		vs := vstore.NewMemory()
		st, err := Open(Config{Dir: t.TempDir(), Shards: 1, SnapshotEvery: 1 << 20, Versions: vs})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			if err := st.Close(); err != nil {
				t.Errorf("close: %v", err)
			}
		})
		return st, vs
	}
	primary, vsP := open()
	follower, vsF := open() // replays every record as a frame
	fresh, vsN := open()    // holds nothing
	var ids []string
	for _, pairs := range []int{20, 3, 16} { // past a fold and mid-window; mid-window; exactly at a fold
		e, err := primary.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, e.ID)
		for j := 0; j < pairs; j++ {
			commitPair(t, primary, e, fmt.Sprintf("%s q%d", e.ID, j), fmt.Sprintf("a%d", j), 0.5)
			if j%5 == 4 {
				shipAll(t, primary, follower, 3)
			}
		}
	}
	shipAll(t, primary, follower, 3)
	if err := primary.Compact(); err != nil {
		t.Fatal(err)
	}
	b, err := primary.PullFrames(0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if b.SnapshotRoot == "" || len(b.Frames) != 0 {
		t.Fatalf("pull below the horizon: root %q and %d frames, want the snapshot root alone", b.SnapshotRoot, len(b.Frames))
	}
	// The driver's loop (cluster.negotiateChunks), counted.
	negotiate := func(vs *vstore.Store) (rounds, moved int) {
		for {
			want := vs.WantList(vstore.Hash(b.SnapshotRoot), 0)
			if len(want) == 0 {
				return rounds, moved
			}
			packets, err := vsP.Packets(want)
			if err != nil {
				t.Fatal(err)
			}
			if err := vs.AddPackets(packets); err != nil {
				t.Fatal(err)
			}
			rounds, moved = rounds+1, moved+len(packets)
		}
	}
	// Commit, shard node, three session nodes; one sealed chunk and four
	// pairs, three pairs, one sealed chunk.
	if rounds, moved := negotiate(vsN); rounds != 4 || moved != 2+3+5+3+1 {
		t.Errorf("a replica that held nothing negotiated %d chunks in %d rounds, want 14 in 4", moved, rounds)
	}
	if rounds, moved := negotiate(vsF); rounds != 2 || moved != 2 {
		t.Errorf("a replica that had replayed every record negotiated %d chunks in %d rounds, want the commit and the shard node in 2", moved, rounds)
	}
	for _, replica := range []*Store{fresh, follower} {
		if err := replica.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
		if err := replica.DeferredError(0); err != nil {
			t.Fatal(err)
		}
		assertMirrors(t, primary, replica, ids)
	}
	for _, id := range ids {
		want, err := vsP.Head(SessionRoot(id))
		if err != nil {
			t.Fatal(err)
		}
		for name, vs := range map[string]*vstore.Store{"fresh": vsN, "follower": vsF} {
			if got, err := vs.Head(SessionRoot(id)); err != nil || got.Tree != want.Tree || got.Turn != want.Turn {
				t.Errorf("the %s replica's head of %s = %+v, %v; the primary's tree is %s at turn %d", name, id, got, err, want.Tree, want.Turn)
			}
		}
	}
}

// TestVersionedStoreSurvivesRestart pins that version roots live in
// the vstore, not the session store: a reopened store with the same
// vstore serves AsOf across the restart.
func TestVersionedStoreSurvivesRestart(t *testing.T) {
	vdir := t.TempDir()
	sdir := t.TempDir()
	vs, err := vstore.Open(vstore.Config{Dir: vdir})
	if err != nil {
		t.Fatal(err)
	}
	st, err := Open(Config{Dir: sdir, Shards: 1, Versions: vs})
	if err != nil {
		t.Fatal(err)
	}
	e, err := st.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	commitPair(t, st, e, "q0", "a0", 0.5)
	commitPair(t, st, e, "q1", "a1", 0.5)
	wantMid, _, err := st.TranscriptAsOf(e.ID, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := Transcript(wantMid)
	if err := errors.Join(st.Close(), vs.Close()); err != nil {
		t.Fatal(err)
	}

	vs2, err := vstore.Open(vstore.Config{Dir: vdir})
	if err != nil {
		t.Fatal(err)
	}
	st2, err := Open(Config{Dir: sdir, Shards: 1, Versions: vs2})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := errors.Join(st2.Close(), vs2.Close()); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	sess, c, err := st2.TranscriptAsOf(e.ID, 2)
	if err != nil {
		t.Fatalf("TranscriptAsOf after restart: %v", err)
	}
	if c.Turn != 2 || Transcript(sess) != want {
		t.Fatalf("restart lost version history: turn=%d", c.Turn)
	}
	// Committing the same pair again during recovery-like replay is
	// idempotent: the log is unchanged.
	before, err := st2.Versions().Log(SessionRoot(e.ID))
	if err != nil {
		t.Fatal(err)
	}
	ee, status := st2.Get(e.ID)
	if status != Found {
		t.Fatalf("session lost: %v", status)
	}
	commitPair(t, st2, ee, "q2", "a2", 0.5)
	after, err := st2.Versions().Log(SessionRoot(e.ID))
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before)+1 {
		t.Fatalf("version log grew by %d, want 1", len(after)-len(before))
	}
}

// journalProbe is a vstore fault hook that also rides the journal's
// crash seam (and, as a Config.Faults, the WAL's): it counts appends
// and their bytes and the chunks encoded (the "vstore.put" consult:
// one per chunk marshalled and hashed, new to the store or not), tears
// the next append in half once tearNext is set — which kills the log —
// and, at the "vstore.commit" consult, after a version's tree is encoded
// and before its commit takes the store lock, runs onCommit and then
// fails the commit once if failCommit is set, which kills nothing.
type journalProbe struct {
	appends    int
	bytes      int64
	puts       int
	tearNext   bool
	failCommit bool
	onCommit   func()
}

var errProbeCommit = errors.New("journalProbe: injected commit failure")

func (p *journalProbe) Inject(op string) error {
	switch op {
	case "vstore.put":
		p.puts++
	case "vstore.commit":
		if p.onCommit != nil {
			p.onCommit()
		}
		if p.failCommit {
			p.failCommit = false
			return errProbeCommit
		}
	}
	return nil
}

func (p *journalProbe) TornWrite(_ string, b []byte) ([]byte, bool) {
	p.appends++
	if p.tearNext {
		p.tearNext = false
		return b[:len(b)/2], true
	}
	p.bytes += int64(len(b))
	return b, false
}

// TestGCBetweenSessionEncodeAndCommit is the regression test for a GC
// round landing between a session tree's encode and its commit: the
// fresh tree is unreachable at that point, and the head must not end
// up pinning a tree the sweep took.
func TestGCBetweenSessionEncodeAndCommit(t *testing.T) {
	probe := &journalProbe{}
	vs, err := vstore.Open(vstore.Config{Dir: t.TempDir(), Faults: probe})
	if err != nil {
		t.Fatal(err)
	}
	st, err := Open(Config{Dir: t.TempDir(), Shards: 1, Versions: vs})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := errors.Join(st.Close(), vs.Close()); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	e, err := st.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	commitPair(t, st, e, "q0", "a0", 0.5)
	// An orphan gives the sweep something to delete, so it rewrites
	// the journal as well.
	if _, err := vs.Put("leaf", nil, []byte(`["orphan"]`)); err != nil {
		t.Fatal(err)
	}
	rounds := 0
	probe.onCommit = func() {
		probe.onCommit = nil
		// Two rounds: the second one's epoch is past anything the
		// encode could have touched.
		for i := 0; i < 2; i++ {
			if _, err := vs.GC(); err != nil {
				t.Errorf("GC: %v", err)
			}
			rounds++
		}
	}
	commitPair(t, st, e, "q1", "a1", 0.5)
	if rounds != 2 {
		t.Fatalf("GC ran %d times between encode and commit, want 2", rounds)
	}
	if err := st.DeferredError(0); err != nil {
		t.Fatalf("version error: %v", err)
	}
	head, err := vs.Head(SessionRoot(e.ID))
	if err != nil {
		t.Fatal(err)
	}
	if head.Turn != 4 || !vs.HasClosure(head.Hash) {
		t.Fatalf("head = %+v, closure complete = %v; want turn 4 with its whole tree", head, vs.HasClosure(head.Hash))
	}
	sess, _, err := st.TranscriptAsOf(e.ID, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := Transcript(sess); got != transcriptOf(t, e) {
		t.Fatalf("as-of transcript after the raced commit:\n got: %q\nwant: %q", got, transcriptOf(t, e))
	}

	// From here the session's tree is remembered turn to turn, and the
	// chunks it remembers are referenced by the next version, never put
	// again — nothing re-touches their GC epoch. They live because the
	// root's head reaches them: with the log cut to that head and a sweep
	// run before every turn and again between its encode and its commit,
	// across the fold at turn 32 (whose pair chunks the sweep then takes),
	// every head keeps its whole tree.
	retain := func() {
		if err := vs.TruncateLog(SessionRoot(e.ID), 1); err != nil {
			t.Errorf("TruncateLog: %v", err)
		}
		if _, err := vs.GC(); err != nil {
			t.Errorf("GC: %v", err)
		}
	}
	for j := 2; j < 20; j++ {
		retain()
		probe.onCommit = func() {
			probe.onCommit = nil
			retain()
			rounds++
		}
		commitPair(t, st, e, fmt.Sprintf("q%d", j), fmt.Sprintf("a%d", j), 0.5)
		if err := st.DeferredError(0); err != nil {
			t.Fatalf("turn pair %d: version error: %v", j, err)
		}
		turns := 2 * (j + 1)
		head, err := vs.Head(SessionRoot(e.ID))
		if err != nil {
			t.Fatal(err)
		}
		if tree := peek(st, e.ID).tree; tree == nil || tree.turns != turns || tree.sess != head.Tree {
			t.Fatalf("turn pair %d: the entry remembers %+v, the head is %+v", j, tree, head)
		}
		sess, _, err := st.TranscriptAsOf(e.ID, turns)
		if head.Turn != turns || !vs.HasClosure(head.Hash) || err != nil || Transcript(sess) != transcriptOf(t, e) {
			t.Fatalf("turn pair %d after retention: head %+v, closure whole = %v, as-of read %v; want turn %d and the transcript", j, head, vs.HasClosure(head.Hash), err, turns)
		}
	}
	if rounds != 2+18 {
		t.Fatalf("GC ran %d times between an encode and its commit, want 20", rounds)
	}
}

// TestVersionCommitsAreJournalAppends commits 400 turns into one
// dir-backed version store: each session and shard version is exactly
// one journal append, the journal is exactly the bytes of those
// appends — no per-commit document, nothing that grows with the run —
// and it is the only file. A session version is that append and no
// flush; the journal is flushed when a compaction is about to reset the
// WAL that covers those versions, and by Close.
func TestVersionCommitsAreJournalAppends(t *testing.T) {
	probe := &journalProbe{}
	vdir := t.TempDir()
	vs, err := vstore.Open(vstore.Config{Dir: vdir, Faults: probe})
	if err != nil {
		t.Fatal(err)
	}
	st, err := Open(Config{Dir: t.TempDir(), Shards: 1, SnapshotEvery: 64, Versions: vs, NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	const sessions, pairs = 25, 8 // 25 × 8 × 2 = 400 turns
	var entries []*Entry
	for i := 0; i < sessions; i++ {
		e, err := st.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, e)
	}
	sh := st.shards[0]
	resets := 0
	for j := 0; j < pairs; j++ {
		for _, e := range entries {
			sh.mu.Lock()
			compactsAt := sh.pending+1 >= 64
			sh.mu.Unlock()
			before := probe.appends
			flushed, _ := vs.JournalSynced()
			commitPair(t, st, e, fmt.Sprintf("q%d", j), fmt.Sprintf("a%d", j), 0.5)
			want := 1 // the session version
			if compactsAt {
				want = 2 // and the shard version the compaction commits
			}
			if got := probe.appends - before; got != want {
				t.Fatalf("turn pair %d of %s made %d journal appends, want %d", j, e.ID, got, want)
			}
			synced, size := vs.JournalSynced()
			if !compactsAt && (synced != flushed || synced == size) {
				t.Fatalf("turn pair %d of %s: journal flushed to %d of %d bytes, was flushed to %d; a session version is no flush", j, e.ID, synced, size, flushed)
			}
			if compactsAt {
				// The shard root's commit is the flushed append; the WAL
				// reset comes after it.
				resets++
				if synced != size || sh.wal.Size() != 0 {
					t.Fatalf("turn pair %d of %s compacted with the journal flushed to %d of %d bytes and %d WAL bytes left", j, e.ID, synced, size, sh.wal.Size())
				}
			}
		}
	}
	if resets != (sessions+sessions*pairs)/64 {
		t.Fatalf("saw %d WAL resets, want %d", resets, (sessions+sessions*pairs)/64)
	}
	if err := st.DeferredError(0); err != nil {
		t.Fatalf("version error: %v", err)
	}
	files, err := os.ReadDir(vdir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 || files[0].Name() != "chunks.pack" {
		t.Fatalf("version store dir holds %v, want only chunks.pack", files)
	}
	if err := st.Close(); err != nil { // the last compaction: one more shard version
		t.Fatal(err)
	}
	if synced, size := vs.JournalSynced(); synced != size || sh.wal.Synced() != sh.wal.Size() {
		t.Fatalf("after Close: journal flushed to %d of %d bytes, WAL to %d of %d", synced, size, sh.wal.Synced(), sh.wal.Size())
	}
	if err := vs.Close(); err != nil {
		t.Fatal(err)
	}
	info, err := files[0].Info()
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != probe.bytes {
		t.Fatalf("journal is %d bytes, its %d appends sum to %d", info.Size(), probe.appends, probe.bytes)
	}
}

// TestDeadJournalRefusesCompaction: a journal that can no longer be
// flushed must not cost the WAL that could rebuild it. Turns are still
// acknowledged, the failure is reported once per turn, every compaction
// is refused with the WAL and the cursor where they were, and a reopen
// re-derives from that WAL every version the dead journal never took.
func TestDeadJournalRefusesCompaction(t *testing.T) {
	dir := t.TempDir()
	vdir := filepath.Join(dir, "vstore")
	fault := &journalProbe{}
	vs, err := vstore.Open(vstore.Config{Dir: vdir, Faults: fault})
	if err != nil {
		t.Fatal(err)
	}
	const snapEvery = 6
	st, err := Open(Config{Dir: dir, Shards: 1, SnapshotEvery: snapEvery, Versions: vs})
	if err != nil {
		t.Fatal(err)
	}
	e, err := st.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	commitPair(t, st, e, "q0", "a0", 0.5)
	commitPair(t, st, e, "q1", "a1", 0.5)
	if err := st.DeferredError(0); err != nil {
		t.Fatal(err)
	}

	fault.tearNext = true
	commitPair(t, st, e, "q2", "a2", 0.5) // acknowledged; its version is torn
	if err := st.DeferredError(0); !errors.Is(err, framelog.ErrCrashed) {
		t.Fatalf("deferred error after the torn version = %v, want ErrCrashed", err)
	}
	if err := st.DeferredError(0); err != nil {
		t.Fatalf("the failure was reported twice: %v", err)
	}
	sh := st.shards[0]
	for j := 3; j < 10; j++ { // well past the compaction cadence
		size := sh.wal.Size()
		commitPair(t, st, e, fmt.Sprintf("q%d", j), fmt.Sprintf("a%d", j), 0.5)
		if sh.wal.Size() <= size {
			t.Fatalf("turn pair %d: WAL went from %d to %d bytes; a dead journal keeps it", j, size, sh.wal.Size())
		}
		err := st.DeferredError(0)
		if !errors.Is(err, framelog.ErrCrashed) {
			t.Fatalf("turn pair %d: deferred error = %v, want the dead journal's", j, err)
		}
		if due := 1+j+1 >= snapEvery; due != strings.Contains(err.Error(), "keeps its WAL") {
			t.Fatalf("turn pair %d: compaction due = %v, deferred error = %v", j, due, err)
		}
	}
	sh.mu.Lock()
	size, cursor, pending := sh.wal.Size(), sh.cursor(), sh.pending
	cerr := sh.compact()
	if cerr == nil || sh.wal.Size() != size || sh.cursor() != cursor || sh.pending != pending || sh.shipBase != 0 {
		t.Errorf("compact on a dead journal = %v; WAL %d → %d bytes, cursor %d → %d, pending %d → %d, horizon %d",
			cerr, size, sh.wal.Size(), cursor, sh.cursor(), pending, sh.pending, sh.shipBase)
	}
	sh.mu.Unlock()
	if head, err := vs.Head(ShardRoot(0)); err == nil {
		t.Errorf("a refused compaction committed a shard root: %+v", head)
	}
	log, err := st.Versions().Log(SessionRoot(e.ID))
	if err != nil || len(log) != 2 {
		t.Fatalf("version log on the dead journal = %+v, %v; want the two versions it took", log, err)
	}
	want := transcriptOf(t, e)
	if err := st.Close(); !errors.Is(err, framelog.ErrCrashed) {
		t.Fatalf("Close = %v, want the refused compaction's error", err)
	}
	if err := vs.Close(); err != nil {
		t.Fatal(err)
	}

	vs2, err := vstore.Open(vstore.Config{Dir: vdir})
	if err != nil {
		t.Fatal(err)
	}
	st2, err := Open(Config{Dir: dir, Shards: 1, SnapshotEvery: snapEvery, Versions: vs2})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := errors.Join(st2.Close(), vs2.Close()); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	if err := st2.DeferredError(0); err != nil {
		t.Fatalf("recovery: %v", err)
	}
	e2, status := st2.Get(e.ID)
	if status != Found || transcriptOf(t, e2) != want {
		t.Fatalf("reopened: status %v, transcript %q; want %q", status, transcriptOf(t, e2), want)
	}
	log, err = st2.Versions().Log(SessionRoot(e.ID))
	if err != nil || len(log) != 10 {
		t.Fatalf("reopened version log has %d entries (%v), want one per pair: 10", len(log), err)
	}
	for i, c := range log {
		sess, _, err := st2.TranscriptAsOf(e.ID, c.Turn)
		if err != nil || c.Turn != 2*(i+1) || Transcript(sess) != turnPrefix(want, c.Turn) {
			t.Fatalf("version %d is at turn %d (%v); want turn %d and that prefix of the transcript", i, c.Turn, err, 2*(i+1))
		}
	}
}

// TestConcurrentTurnsFlushesAndAsOfReads runs turns on every shard at
// once against one dir-backed version store, with compactions (each one
// a journal flush under the store's exclusive lock) frequent and as-of
// reads of not-yet-flushed versions in between: under -race this is the
// shard lock and the store lock taken together from several goroutines.
func TestConcurrentTurnsFlushesAndAsOfReads(t *testing.T) {
	dir := t.TempDir()
	vs, err := vstore.Open(vstore.Config{Dir: filepath.Join(dir, "vstore")})
	if err != nil {
		t.Fatal(err)
	}
	st, err := Open(Config{Dir: dir, Shards: 4, SnapshotEvery: 3, Versions: vs})
	if err != nil {
		t.Fatal(err)
	}
	const sessions, pairs = 8, 12
	var entries []*Entry
	for i := 0; i < sessions; i++ {
		e, err := st.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, e)
	}
	var wg sync.WaitGroup
	for _, e := range entries {
		wg.Add(1)
		go func(e *Entry) {
			defer wg.Done()
			for j := 0; j < pairs; j++ {
				err := e.Do(func(sess *dialogue.Session) error {
					sess.CommitTurn(fmt.Sprintf("q%d of %s", j, e.ID), dialogue.IntentQuery, fmt.Sprintf("a%d", j), 0.5)
					return st.CommitTurn(e)
				})
				if err != nil {
					t.Errorf("commit %d of %s: %v", j, e.ID, err)
					return
				}
				// Read back what was just written and nothing has flushed.
				sess, c, err := st.TranscriptAsOf(e.ID, 2*(j+1))
				if err != nil || c.Turn != 2*(j+1) || len(sess.Turns) != 2*(j+1) {
					t.Errorf("%s as of turn %d = commit at turn %d, %v", e.ID, 2*(j+1), c.Turn, err)
					return
				}
			}
		}(e)
	}
	wg.Wait()
	for shard := 0; shard < 4; shard++ {
		if err := st.DeferredError(shard); err != nil {
			t.Fatal(err)
		}
	}
	want := map[string][]vstore.Commit{}
	for _, e := range entries {
		log, err := st.Versions().Log(SessionRoot(e.ID))
		if err != nil || len(log) != pairs {
			t.Fatalf("session %s has %d versions (%v), want %d", e.ID, len(log), err, pairs)
		}
		want[e.ID] = log
	}
	if err := errors.Join(st.Close(), vs.Close()); err != nil {
		t.Fatal(err)
	}
	logs := versionLogs(t, dir)
	for id, w := range want {
		if got := logs[SessionRoot(id)]; !reflect.DeepEqual(got, w) {
			t.Fatalf("reopened log of %s differs:\n got: %+v\nwant: %+v", id, got, w)
		}
	}
}

// TestSessionVersionJournalBytes pins what each version of one 8-pair
// session journals on a dir-backed store that does not compact, frame by
// frame in journal order (framelog header included): the pair's turns
// chunk — or, at the turn that fills a window, the sealed chunk — the
// session node, the commit chunk and the root record. No frame spells
// in hex an address it references; the one hex address a frame holds is
// a commit's parent, in the commit's data.
func TestSessionVersionJournalBytes(t *testing.T) {
	dir := t.TempDir()
	vs, err := vstore.Open(vstore.Config{Dir: filepath.Join(dir, "vstore")})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := vs.Close(); err != nil {
			t.Errorf("close versions: %v", err)
		}
	}()
	st, err := Open(Config{Dir: dir, Shards: 1, SnapshotEvery: 1 << 20, Versions: vs})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := st.Close(); err != nil {
			t.Errorf("close store: %v", err)
		}
	}()
	e, err := st.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 8; j++ {
		commitPair(t, st, e, fmt.Sprintf("how many employment where canton is Zurich in round %d", j),
			fmt.Sprintf("There are %d rows of employment matching Zurich.", 100*j), 0.5)
	}
	if err := st.DeferredError(0); err != nil {
		t.Fatal(err)
	}
	log, err := vs.Log(SessionRoot(e.ID))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "vstore", "chunks.pack"))
	if err != nil {
		t.Fatal(err)
	}
	payloads, _ := framelog.Scan(0xC6, raw) // the version store's journal magic
	addrs := make([]vstore.Hash, len(payloads))
	for i, p := range payloads {
		addrs[i] = vstore.Hash(sha256Hex(p))
	}
	parent := map[vstore.Hash]vstore.Hash{}
	for _, c := range log {
		parent[c.Hash] = c.Parent
	}
	var got [][]string
	var version []string
	for i, p := range payloads {
		kind := "root"
		if vs.Has(addrs[i]) {
			if kind, err = vs.Kind(addrs[i]); err != nil {
				t.Fatal(err)
			}
		}
		for _, a := range append(addrs, log[len(log)-1].Hash) {
			if strings.Contains(string(p), string(a)) && (kind != "commit" || a != parent[addrs[i]]) {
				t.Errorf("the %s frame at %d spells address %s in hex", kind, i, a)
			}
		}
		version = append(version, fmt.Sprintf("%s %d", kind, framelog.HeaderSize+len(p)))
		if kind == "root" {
			got, version = append(got, version), nil
		}
	}
	// Frame sizes, the 9-byte header included: a session node grows 32
	// bytes a ref (33 where its turn count gains a digit); a commit is 70
	// bytes, 146 once it names a parent and 147 from turn 10; the root
	// record of session/s0001 is 56.
	want := [][]string{
		{"turns 216", "sess 89", "commit 70", "root 56"},
		{"turns 218", "sess 121", "commit 146", "root 56"},
		{"turns 218", "sess 153", "commit 146", "root 56"},
		{"turns 218", "sess 185", "commit 146", "root 56"},
		{"turns 218", "sess 218", "commit 147", "root 56"},
		{"turns 218", "sess 250", "commit 147", "root 56"},
		{"turns 218", "sess 282", "commit 147", "root 56"},
		{"turns 218", "sess 314", "commit 147", "root 56"},
	}
	if !reflect.DeepEqual(got, want) || len(got) != len(log) {
		t.Errorf("versions journal\n got: %q\nwant: %q", got, want)
	}
}
