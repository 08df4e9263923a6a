package sessionstore

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
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

// TestPullRecordsAtCompactionHorizonBoundary pins the boundary between
// the snapshot-transfer and record-shipping paths: a cursor EXACTLY at
// the compaction horizon is fully served by records — the horizon is
// the last sequence the snapshot covers, so nothing below it is
// needed — while one record below it must get a snapshot.
func TestPullRecordsAtCompactionHorizonBoundary(t *testing.T) {
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
		// Land at least one record above the horizon so the record path
		// has something to serve.
		commitPair(t, primary, e, "q-tail", "a-tail", 0.5)
	}

	// Exactly at the horizon: records, starting at horizon+1.
	b, err := primary.PullRecords(0, horizon, 0)
	if err != nil {
		t.Fatal(err)
	}
	if b.SnapshotRoot != "" {
		t.Fatalf("cursor at horizon %d got the shard root", horizon)
	}
	if len(b.Records) == 0 || b.Records[0].Seq != horizon+1 {
		t.Fatalf("cursor at horizon: records = %d starting %d, want first seq %d",
			len(b.Records), b.Records[0].Seq, horizon+1)
	}

	// One below: the shard root at the horizon, and the records after it.
	b, err = primary.PullRecords(0, horizon-1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if b.SnapshotRoot == "" || b.SnapshotSeq != horizon || len(b.Records) == 0 || b.Records[0].Seq != horizon+1 {
		t.Fatalf("cursor below horizon: root %q at %d and %d records, want the root at %d and records from %d",
			b.SnapshotRoot, b.SnapshotSeq, len(b.Records), horizon, horizon+1)
	}

	// A replica starting exactly at the horizon catches up by records
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
	full, err := primary.PullRecords(0, 0, 0)
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
	if len(log) != 6 || log[0].Turn != 0 {
		t.Fatalf("session has %d versions, want 6: its creation's at turn 0 and one per pair: %+v", len(log), log)
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

	b, err := primary.PullRecords(0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if b.SnapshotRoot == "" {
		t.Fatalf("pull below horizon: no shard root, %d records", len(b.Records))
	}

	if err := replica.ApplyBatch(b); !errors.Is(err, ErrReplicaGap) || !strings.Contains(fmt.Sprint(err), b.SnapshotRoot) {
		t.Fatalf("apply without chunks err = %v, want a replication gap naming %s", err, b.SnapshotRoot)
	}
	moved1 := pullChunks(t, vsP, vsR, vstore.Hash(b.SnapshotRoot), 16)
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
	b2, err := primary.PullRecords(0, replica.ReplicationCursor(0), 0)
	if err != nil {
		t.Fatal(err)
	}
	if b2.SnapshotRoot == "" {
		t.Fatalf("second catch-up did not use a snapshot root")
	}
	moved2 := pullChunks(t, vsP, vsR, vstore.Hash(b2.SnapshotRoot), 16)
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
	follower, vsF := open() // replays every record as it is shipped
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
	b, err := primary.PullRecords(0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if b.SnapshotRoot == "" || len(b.Records) != 0 {
		t.Fatalf("pull below the horizon: root %q and %d records, want the snapshot root alone", b.SnapshotRoot, len(b.Records))
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
// and before its commit takes the store lock, fails the commit once if
// failCommit is set, which kills nothing.
type journalProbe struct {
	appends    int
	bytes      int64
	puts       int
	tearNext   bool
	failCommit bool
}

var errProbeCommit = errors.New("journalProbe: injected commit failure")

func (p *journalProbe) Inject(op string) error {
	switch op {
	case "vstore.put":
		p.puts++
	case "vstore.commit":
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

// TestVersionCommitsAreJournalAppends commits 400 turns into one
// dir-backed version store: each create, turn and shard version is
// exactly one journal append, flushed before the commit returns, the
// journal is exactly the bytes of those appends — no per-commit
// document, nothing that grows with the run — and it is the only file.
func TestVersionCommitsAreJournalAppends(t *testing.T) {
	probe := &journalProbe{}
	vdir := t.TempDir()
	vs, err := vstore.Open(vstore.Config{Dir: vdir, Faults: probe})
	if err != nil {
		t.Fatal(err)
	}
	st, err := Open(Config{Dir: t.TempDir(), Shards: 1, SnapshotEvery: 64, Versions: vs})
	if err != nil {
		t.Fatal(err)
	}
	const sessions, pairs = 25, 8 // 25 × 8 × 2 = 400 turns
	flushed := func(what string) {
		t.Helper()
		if synced, size := vs.JournalSynced(); synced != size {
			t.Fatalf("%s: journal flushed to %d of %d bytes; every record is a flushed append", what, synced, size)
		}
	}
	var entries []*Entry
	for i := 0; i < sessions; i++ {
		before := probe.appends
		e, err := st.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		if got := probe.appends - before; got != 1 {
			t.Fatalf("create %d made %d journal appends, want 1", i, got)
		}
		flushed("create " + e.ID)
		entries = append(entries, e)
	}
	sh := st.shards[0]
	compactions := 0
	for j := 0; j < pairs; j++ {
		for _, e := range entries {
			sh.mu.Lock()
			compactsAt := len(sh.tail)+1 >= 64
			sh.mu.Unlock()
			before := probe.appends
			commitPair(t, st, e, fmt.Sprintf("q%d", j), fmt.Sprintf("a%d", j), 0.5)
			want := 1 // the session version
			if compactsAt {
				want = 2 // and the shard version the compaction commits
				compactions++
			}
			if got := probe.appends - before; got != want {
				t.Fatalf("turn pair %d of %s made %d journal appends, want %d", j, e.ID, got, want)
			}
			flushed(fmt.Sprintf("turn pair %d of %s", j, e.ID))
		}
	}
	if compactions != (sessions+sessions*pairs)/64 {
		t.Fatalf("saw %d compactions, want %d", compactions, (sessions+sessions*pairs)/64)
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
	flushed("after Close")
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

// commitOnce is commitPair that returns the commit's error.
func commitOnce(st *Store, e *Entry, q, a string) error {
	return e.Do(func(sess *dialogue.Session) error {
		sess.CommitTurn(q, dialogue.ClassifyIntent(q), a, 0.5)
		return st.CommitTurn(e)
	})
}

// TestDeadJournalRefusesCompaction: a torn journal append kills the
// journal, and with it the turn it carried and every record after it:
// each fails with ErrCrashed and moves nothing — no turn, no cursor, no
// compaction, no shard root — and a reopen serves every acknowledged
// turn, each with its version.
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
	want := transcriptOf(t, e)

	fault.tearNext = true
	if err := commitOnce(st, e, "q2", "a2"); !errors.Is(err, framelog.ErrCrashed) {
		t.Fatalf("the torn turn = %v, want ErrCrashed", err)
	}
	sh := st.shards[0]
	for j := 3; j < 10; j++ { // well past the compaction cadence
		if err := commitOnce(st, e, fmt.Sprintf("q%d", j), fmt.Sprintf("a%d", j)); !errors.Is(err, framelog.ErrCrashed) {
			t.Fatalf("turn pair %d on the dead journal = %v, want ErrCrashed", j, err)
		}
	}
	if _, err := st.NewSession(); !errors.Is(err, framelog.ErrCrashed) {
		t.Fatalf("a create on the dead journal = %v, want ErrCrashed", err)
	}
	if got := transcriptOf(t, e); got != want {
		t.Fatalf("after the dead journal the session holds\n%s\nwant the acknowledged\n%s", got, want)
	}
	sh.mu.Lock()
	cursor, pending := sh.cursor(), len(sh.tail)
	cerr := sh.compact(nil)
	if cerr == nil || sh.cursor() != cursor || len(sh.tail) != pending || sh.shipBase != 0 || cursor != 3 {
		t.Errorf("compact on a dead journal = %v; cursor %d → %d, pending %d → %d, horizon %d; want it refused at cursor 3",
			cerr, cursor, sh.cursor(), pending, len(sh.tail), sh.shipBase)
	}
	sh.mu.Unlock()
	if head, err := vs.Head(ShardRoot(0)); err != nil || head.Turn != 0 {
		t.Errorf("the shard root on the dead journal = %+v, %v; want only its first version, at 0", head, err)
	}
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
	e2, status := st2.Get(e.ID)
	if status != Found || transcriptOf(t, e2) != want {
		t.Fatalf("reopened: status %v, transcript %q; want %q", status, transcriptOf(t, e2), want)
	}
	log, err := st2.Versions().Log(SessionRoot(e.ID))
	if err != nil || len(log) != 3 {
		t.Fatalf("reopened version log has %d entries (%v), want the create's and one per pair: 3", len(log), err)
	}
	for i, c := range log {
		sess, _, err := st2.TranscriptAsOf(e.ID, c.Turn)
		if err != nil || c.Turn != 2*i || Transcript(sess) != turnPrefix(want, c.Turn) {
			t.Fatalf("version %d is at turn %d (%v); want turn %d and that prefix of the transcript", i, c.Turn, err, 2*i)
		}
	}
	if c := st2.ReplicationCursor(0); c != 3 {
		t.Fatalf("reopened cursor = %d, want the 3 acknowledged records", c)
	}
}

// TestClosedVersionStoreKeepsTheWAL: the session store's write-ahead
// log is the journal of the version store it was given. One the caller
// owns, closed before the session store, takes no record, so the turn
// after it fails and moves nothing, the session store's Close cannot
// compact and says so, and the acknowledged turn is there after reopen.
func TestClosedVersionStoreKeepsTheWAL(t *testing.T) {
	dir := t.TempDir()
	vs, err := vstore.Open(vstore.Config{Dir: filepath.Join(dir, "vstore")})
	if err != nil {
		t.Fatal(err)
	}
	st, err := Open(Config{Dir: dir, Shards: 1, Versions: vs})
	if err != nil {
		t.Fatal(err)
	}
	e, err := st.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	commitPair(t, st, e, "q0", "a0", 0.5)
	want := transcriptOf(t, e)
	if err := vs.Close(); err != nil {
		t.Fatal(err)
	}
	if err := commitOnce(st, e, "q1", "a1"); err == nil || !strings.Contains(err.Error(), "closed store") {
		t.Fatalf("a turn over a closed version store = %v, want the closed store's refusal", err)
	}
	if got := transcriptOf(t, e); got != want {
		t.Fatalf("the refused turn moved the transcript to\n%s", got)
	}
	if err := st.Close(); err == nil || !strings.Contains(err.Error(), "compact shard 0") {
		t.Fatalf("Close over a closed version store = %v, want the refused compaction", err)
	}

	st2, err := Open(Config{Dir: dir, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := st2.Close(); err != nil {
			t.Errorf("close reopened: %v", err)
		}
	}()
	e2, status := st2.Get(e.ID)
	if status != Found {
		t.Fatalf("acknowledged session after reopen: status %v", status)
	}
	if got := transcriptOf(t, e2); got != want {
		t.Fatalf("reopened transcript:\n%s\nwant:\n%s", got, want)
	}
}

// TestConcurrentTurnsFlushesAndAsOfReads runs turns on every shard at
// once against one dir-backed version store, with compactions frequent
// and as-of reads of each turn just acknowledged in between: under -race
// this is the shard locks, the store lock and the journal's group commit
// taken together from several goroutines.
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
				// Read back what was just acknowledged.
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
		if err != nil || len(log) != pairs+1 {
			t.Fatalf("session %s has %d versions (%v), want the create's and %d", e.ID, len(log), err, pairs)
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

// carriesNode reports whether node, the tail of a commit record, carries
// tree: its canonical chunk payload when tree has no refs, else its back
// form — tag 0x06, kind, ref count, a distance of at least 1 a ref,
// data — which spells no ref's address, raw or in hex.
func carriesNode(t *testing.T, vs *vstore.Store, node []byte, tree vstore.Hash) bool {
	t.Helper()
	refs, err := vs.Refs(tree)
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) == 0 {
		return vstore.Hash(sha256Hex(node)) == tree
	}
	kind, data, err := vs.Data(tree)
	if err != nil {
		t.Fatal(err)
	}
	head := append([]byte{0x06, byte(len(kind))}, kind...)
	if !bytes.HasPrefix(node, append(head, byte(len(refs)))) || !bytes.HasSuffix(node, data) {
		return false
	}
	dists := node[len(head)+1 : len(node)-len(data)]
	for range refs {
		d, n := binary.Uvarint(dists)
		if n <= 0 || d == 0 {
			return false
		}
		dists = dists[n:]
	}
	for _, r := range refs {
		raw, err := hex.DecodeString(string(r))
		if err != nil || bytes.Contains(node, raw) {
			return false
		}
	}
	return len(dists) == 0
}

// TestSessionVersionJournalBytes pins what each version of one 8-pair
// session journals on a dir-backed store that does not compact, frame by
// frame in journal order (framelog header included): its creation, one
// commit record of the empty session node at turn 0 behind the shard's
// first root record, then per pair the pair's turns chunk — or, at the
// turn that fills a window, the sealed chunk — and one commit record,
// which carries the session node the version pins, its refs spelled as
// distances back, and spells neither the commit's address nor its
// parent. No frame spells in hex an address it references.
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
	var got [][]string
	var version []string
	for i, p := range payloads {
		for _, c := range log {
			for _, a := range []vstore.Hash{c.Hash, c.Tree} {
				if strings.Contains(string(p), string(a)) {
					t.Errorf("the frame at %d spells address %s in hex", i, a)
				}
			}
		}
		size := framelog.HeaderSize + len(p)
		if h := vstore.Hash(sha256Hex(p)); vs.Has(h) {
			kind, _, err := vs.Data(h)
			if err != nil {
				t.Fatal(err)
			}
			version = append(version, fmt.Sprintf("%s %d", kind, size))
			continue
		}
		// A commit record: 0x04, the root name behind its length, the
		// turn, and the session node: form 1, its chunk bytes after their
		// 0x01 tag, when it has no refs; else form 6, its back form,
		// every ref a distance back in the journal's chunk order.
		if len(got) == len(log) {
			t.Fatalf("the frame at %d is a record past the %d versions", i, len(log))
		}
		name := SessionRoot(e.ID)
		if shard := ShardRoot(0); bytes.HasPrefix(p, append([]byte{0x04, byte(len(shard))}, shard...)) {
			version = append(version, fmt.Sprintf("shard record %d", size))
			continue
		}
		c := log[len(got)]
		head := append([]byte{0x04, byte(len(name))}, name...)
		head = append(head, byte(c.Turn))
		if !bytes.HasPrefix(p, head) || !carriesNode(t, vs, p[len(head):], c.Tree) {
			t.Fatalf("version %d: the frame at %d is %x, want a commit record for %s at turn %d carrying node %s", len(got), i, p, name, c.Turn, c.Tree)
		}
		version = append(version, fmt.Sprintf("record %d", size))
		got, version = append(got, version), nil
	}
	// Frame sizes, the 9-byte header included: a turns chunk is the
	// pair as a turn record spells it behind 8 bytes of kind and ref
	// count; a commit record is the session node's frame and 16 bytes of
	// tag, root name and turn, and the node grows a byte a ref: each pair
	// chunk lies fewer than 128 chunks back. Spelling each ref's 32-byte
	// address, the node grew 32 bytes a ref (records of 74, 106, … 298
	// bytes). The format before commit records spent on each version a
	// session node frame, a 53-byte commit chunk (85 once it names a
	// parent) and a 56-byte root record: 93 bytes more on the first, 125
	// on the rest.
	want := [][]string{
		{"shard record 32", "record 42"},
		{"turns 131", "record 43"},
		{"turns 133", "record 44"},
		{"turns 133", "record 45"},
		{"turns 133", "record 46"},
		{"turns 133", "record 47"},
		{"turns 133", "record 48"},
		{"turns 133", "record 49"},
		{"turns 133", "record 50"},
	}
	if !reflect.DeepEqual(got, want) || len(got) != len(log) {
		t.Errorf("versions journal\n got: %q\nwant: %q", got, want)
	}
}
