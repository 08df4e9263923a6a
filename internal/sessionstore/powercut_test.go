package sessionstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/reliable-cda/cda/internal/resilience"
	"github.com/reliable-cda/cda/internal/vstore"
)

// The power-cut model. Every other crash test in the repository is a
// process kill (the page cache survives, so everything written is read
// back) or a torn write at the append seam. A power cut is the crash
// that discards bytes which were written and not flushed, and it is the
// only one a log that writes without fsync is exposed to. After every
// acknowledged operation the test below builds the directory such a cut
// could leave: of each log its Synced() prefix for certain, and of what
// lay beyond it — only the version journal ever has anything there — a
// seeded choice of nothing, all of it, or all of it with one 4 KiB page
// never having reached the disk; and, for the first frame batch the
// store applies as a replica and the first turn it takes itself, every
// prefix of the next write, byte by byte. Snapshots are published with
// an fsync and a durable rename, so they are copied as they are.

const (
	pcShards    = 4
	pcSnapEvery = 16
	pcTTL       = time.Hour
	pcPage      = 4096
	// pcLongPairs is how far the script takes one shipped and one native
	// session: past the fold at 16 pairs, so the recovered stores' trees —
	// encoded from nothing — are held against trees the store that never
	// crashed cut turn by turn from the ones it remembered.
	pcLongPairs = 19
)

// versionEntry is what a session's version log must agree on with a run
// that never crashed: the turn count and the tree. Commit hashes,
// parents and stamps of re-derived versions may differ.
type versionEntry struct {
	Turn int
	Tree vstore.Hash
}

func versionEntries(log []vstore.Commit) []versionEntry {
	out := make([]versionEntry, len(log))
	for i, c := range log {
		out[i] = versionEntry{c.Turn, c.Tree}
	}
	return out
}

// sessionLogs maps every session root of vs to its log.
func sessionLogs(t *testing.T, vs *vstore.Store) map[string][]vstore.Commit {
	t.Helper()
	out := map[string][]vstore.Commit{}
	for _, root := range vs.Roots() {
		if !strings.HasPrefix(root, "session/") {
			continue
		}
		log, err := vs.Log(root)
		if err != nil {
			t.Fatal(err)
		}
		out[root] = log
	}
	return out
}

// peek returns a live session without refreshing its idle timer, which
// Get would.
func peek(st *Store, id string) *Entry {
	sh := st.shards[st.ShardIndex(id)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.sessions[id]
}

// abandon releases a store's file handles the way a kill does: no
// compaction, nothing written.
func abandon(t *testing.T, st *Store, vs *vstore.Store) {
	t.Helper()
	for _, sh := range st.shards {
		if err := sh.wal.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if err := vs.Close(); err != nil {
		t.Fatal(err)
	}
}

// turnPrefix is the first k turns of a rendered transcript.
func turnPrefix(transcript string, k int) string {
	return strings.Join(strings.SplitAfter(transcript, "\n")[:k], "")
}

// powerCut drives the store under test and, after every acknowledged
// operation, the recoveries of what a power cut could have left of it.
type powerCut struct {
	t   *testing.T
	rng *rand.Rand
	dir string
	st  *Store
	vs  *vstore.Store
	wal *journalProbe // counts WAL appends: each is one write and one fsync

	ids     []string        // every session the store has held, in arrival order
	evicted map[string]bool // of which these are gone
	native  map[string]bool // and these took every turn on this store

	// written is the journal's size after each acknowledged operation:
	// the boundaries of the write groups a cut can fall into.
	written []int64

	// everyOffset asks for the byte-by-byte treatment of the next
	// operation that leaves the journal an unflushed tail.
	everyOffset bool

	ops, recoveries int
	modes           map[string]int
}

func (pc *powerCut) journalPath(dir string) string {
	return filepath.Join(dir, "vstore", "chunks.pack")
}

// acked is called after every acknowledged operation.
func (pc *powerCut) acked(what string) {
	t := pc.t
	t.Helper()
	pc.ops++
	// The ack contract: nothing acknowledged is waiting for a flush in
	// any WAL. That no fsync was taken off the turn's own record is what
	// lets the journal's be deferred.
	for _, sh := range pc.st.shards {
		sh.mu.Lock()
		synced, size := sh.wal.Synced(), sh.wal.Size()
		sh.mu.Unlock()
		if synced != size {
			t.Fatalf("after %s: shard %d's WAL is flushed to %d of %d bytes", what, sh.idx, synced, size)
		}
	}
	synced, size := pc.vs.JournalSynced()
	pc.written = append(pc.written, size)
	journal, err := os.ReadFile(pc.journalPath(pc.dir))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(journal)) != size {
		t.Fatalf("after %s: journal file is %d bytes, the log says %d", what, len(journal), size)
	}
	tail := journal[synced:]
	if len(tail) == 0 {
		pc.modes["flushed"]++
		pc.recover(what+", journal flushed", journal)
		return
	}
	switch k := pc.rng.Intn(3); {
	case pc.everyOffset:
		// Every prefix of the first write the flush had not covered.
		pc.everyOffset = false
		end := size
		for _, w := range pc.written {
			if w > synced {
				end = w
				break
			}
		}
		pc.modes["every offset"]++
		dir := pc.copyDir(what)
		for cut := synced; cut <= end; cut++ {
			what := fmt.Sprintf("%s, journal cut at byte %d of [%d, %d)", what, cut, synced, size)
			if (cut-synced)%257 == 0 {
				pc.recover(what, journal[:cut]) // the whole protocol on a sample
				continue
			}
			// Recovery alone on the rest, in one directory: an open that
			// commits no turn writes to no file but the journal.
			pc.recoveries++
			if err := os.WriteFile(pc.journalPath(dir), journal[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			st, vs := pc.reopen(what, dir)
			pc.requireAcknowledged(what, st, vs, false)
			abandon(t, st, vs)
		}
	case k == 0:
		pc.modes["nothing"]++
		pc.recover(what+", unflushed journal tail lost", journal[:synced])
	case k == 1:
		pc.modes["whole tail"]++
		pc.recover(what+", unflushed journal tail kept", journal)
	default:
		// A later page persisted, an earlier one did not: the bytes of
		// one page that no flush covered read back as zeros.
		first, last := synced/pcPage, (size-1)/pcPage
		page := first + int64(pc.rng.Intn(int(last-first)+1))
		if last > first && page == last {
			page-- // prefer one with persisted bytes after it
		}
		img := bytes.Clone(journal)
		lo, hi := max(page*pcPage, synced), min((page+1)*pcPage, size)
		clear(img[lo:hi])
		pc.modes["page zeroed"]++
		pc.recover(fmt.Sprintf("%s, journal bytes [%d, %d) of [%d, %d) never written", what, lo, hi, synced, size), img)
	}
}

// copyDir copies the data dir of the store under test as it stands.
func (pc *powerCut) copyDir(what string) string {
	t := pc.t
	t.Helper()
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "vstore"), 0o755); err != nil {
		t.Fatal(err)
	}
	files, err := os.ReadDir(pc.dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if f.IsDir() {
			continue
		}
		if strings.HasSuffix(f.Name(), ".tmp") {
			t.Fatalf("%s: %s left behind by a publish", what, f.Name())
		}
		data, err := os.ReadFile(filepath.Join(pc.dir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, f.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// recover is the whole protocol on one image of the data dir — the
// store's files with journal as chunks.pack: reopen it and require
// everything the operations so far were acknowledged on, reopen it
// again and require that nothing changed, then commit the next turn.
func (pc *powerCut) recover(what string, journal []byte) {
	t := pc.t
	t.Helper()
	pc.recoveries++
	dir := pc.copyDir(what)
	if err := os.WriteFile(pc.journalPath(dir), journal, 0o644); err != nil {
		t.Fatal(err)
	}
	st, vs := pc.reopen(what, dir)
	pc.requireAcknowledged(what, st, vs, true)
	logs := sessionLogs(t, vs)
	abandon(t, st, vs)
	rederived, err := os.ReadFile(pc.journalPath(dir))
	if err != nil {
		t.Fatal(err)
	}

	// A second reopen finds nothing left to redo.
	what += ", reopened twice"
	st, vs = pc.reopen(what, dir)
	after, err := os.ReadFile(pc.journalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, rederived) {
		t.Fatalf("%s: the second open changed the journal (%d bytes, were %d)", what, len(after), len(rederived))
	}
	if got := sessionLogs(t, vs); !reflect.DeepEqual(got, logs) {
		t.Fatalf("%s: session version logs changed:\n got: %+v\nwant: %+v", what, got, logs)
	}
	pc.requireAcknowledged(what, st, vs, true)

	// And the recovered store takes the next turn.
	var live []string
	for _, id := range pc.ids {
		if peek(pc.st, id) != nil {
			live = append(live, id)
		}
	}
	if len(live) > 0 {
		id := live[pc.rng.Intn(len(live))]
		e, status := st.Get(id)
		if status != Found {
			t.Fatalf("%s: session %s: status %v", what, id, status)
		}
		before := transcriptOf(t, e)
		commitPair(t, st, e, "what came after the power cut", "the next turn", 0.75)
		turns := strings.Count(before, "\n") + 2
		log, err := st.Versions().Log(SessionRoot(id))
		if err != nil || log[len(log)-1].Turn != turns || len(log) != len(logs[SessionRoot(id)])+1 {
			t.Fatalf("%s: version log of %s after the next turn = %+v, %v; want one more entry, at turn %d", what, id, log, err, turns)
		}
		if before != "" { // a session with no turn has no version to go back to
			sess, _, err := st.TranscriptAsOf(id, turns-2)
			if err != nil || Transcript(sess) != before {
				t.Fatalf("%s: %s as of turn %d after the next turn = %v, want what it held before it", what, id, turns-2, err)
			}
		}
		if err := st.DeferredError(st.ShardIndex(id)); err != nil {
			t.Fatalf("%s: the next turn on %s: %v", what, id, err)
		}
	}
	abandon(t, st, vs)
}

func (pc *powerCut) reopen(what, dir string) (*Store, *vstore.Store) {
	pc.t.Helper()
	vs, err := vstore.Open(vstore.Config{Dir: filepath.Join(dir, "vstore")})
	if err != nil {
		pc.t.Fatalf("%s: reopen version store: %v", what, err)
	}
	st, err := Open(Config{Dir: dir, Shards: pcShards, SnapshotEvery: pcSnapEvery, TTL: pcTTL, Versions: vs})
	if err != nil {
		pc.t.Fatalf("%s: reopen: %v", what, err)
	}
	return st, vs
}

// requireAcknowledged holds a recovered store to the store that never
// crashed: the same sessions live and gone, every transcript byte for
// byte, every version log entry for entry (turn and tree), every as-of
// read the prefix it names (everyAsOf; otherwise the newest of each
// session, which is where the journal's tail is).
func (pc *powerCut) requireAcknowledged(what string, st *Store, vs *vstore.Store, everyAsOf bool) {
	t := pc.t
	t.Helper()
	for shard := 0; shard < pcShards; shard++ {
		if err := st.DeferredError(shard); err != nil {
			t.Fatalf("%s: recovering shard %d: %v", what, shard, err)
		}
	}
	live := 0
	for _, id := range pc.ids {
		e, status := st.Get(id)
		if pc.evicted[id] {
			if status != Gone {
				t.Fatalf("%s: evicted session %s: status %v, want Gone", what, id, status)
			}
			continue
		}
		held := peek(pc.st, id)
		if held == nil {
			// Its shard has not been shipped yet.
			if status != NotFound {
				t.Fatalf("%s: session %s: status %v, want NotFound", what, id, status)
			}
			continue
		}
		live++
		if status != Found {
			t.Fatalf("%s: session %s: status %v", what, id, status)
		}
		want := transcriptOf(t, held)
		if got := transcriptOf(t, e); got != want {
			t.Fatalf("%s: session %s:\n got: %q\nwant: %q", what, id, got, want)
		}
		turns := strings.Count(want, "\n")
		wantLog, err := pc.vs.Log(SessionRoot(id))
		if turns == 0 {
			if _, gerr := vs.Log(SessionRoot(id)); err == nil || gerr == nil {
				t.Fatalf("%s: session %s has no turn and a version log (%v, %v)", what, id, err, gerr)
			}
			continue
		}
		if err != nil {
			t.Fatalf("the store that never crashed has no version log for %s: %v", id, err)
		}
		log, err := vs.Log(SessionRoot(id))
		if err != nil {
			t.Fatalf("%s: version log of %s: %v", what, id, err)
		}
		if got, want := versionEntries(log), versionEntries(wantLog); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: version log of %s (turn, tree):\n got: %v\nwant: %v", what, id, got, want)
		}
		if pc.native[id] && len(log) != turns/2 {
			t.Fatalf("%s: session %s committed %d pairs and has %d versions", what, id, turns/2, len(log))
		}
		if !everyAsOf {
			log = log[len(log)-1:]
		}
		for _, c := range log {
			sess, got, err := st.TranscriptAsOf(id, c.Turn)
			if err != nil || got.Turn != c.Turn || Transcript(sess) != turnPrefix(want, c.Turn) {
				t.Fatalf("%s: %s as of turn %d = commit at turn %d, %v; want that prefix of the transcript", what, id, c.Turn, got.Turn, err)
			}
		}
	}
	if st.Len() != live {
		t.Fatalf("%s: recovered %d live sessions, want %d", what, st.Len(), live)
	}
}

// turn commits one pair on the store under test and holds it to one
// fsync: the WAL's. The journal is flushed only by a compaction.
func (pc *powerCut) turn(id string, n int) {
	t := pc.t
	t.Helper()
	sh := pc.st.shards[pc.st.ShardIndex(id)]
	sh.mu.Lock()
	compacts := len(sh.tail)+1 >= pcSnapEvery
	sh.mu.Unlock()
	appends := pc.wal.appends
	flushed, _ := pc.vs.JournalSynced()
	commitPair(t, pc.st, peek(pc.st, id), fmt.Sprintf("question %d of %s", n, id), fmt.Sprintf("answer %d", n), 0.5+float64(n%7)/17)
	if got := pc.wal.appends - appends; got != 1 {
		t.Fatalf("turn %d of %s made %d WAL appends, want 1", n, id, got)
	}
	synced, size := pc.vs.JournalSynced()
	switch {
	case compacts && synced != size:
		t.Fatalf("turn %d of %s compacted shard %d with the journal flushed to %d of %d bytes", n, id, sh.idx, synced, size)
	case !compacts && synced != flushed:
		t.Fatalf("turn %d of %s flushed the journal (%d → %d): a turn is one fsync, the WAL's", n, id, flushed, synced)
	}
	pc.acked(fmt.Sprintf("turn %d of %s", n, id))
}

func TestPowerCutKeepsEveryAcknowledgedTurnAndVersion(t *testing.T) {
	dir := t.TempDir()
	vs, err := vstore.Open(vstore.Config{Dir: filepath.Join(dir, "vstore")})
	if err != nil {
		t.Fatal(err)
	}
	clock := resilience.NewVirtualClock()
	wal := &journalProbe{}
	st, err := Open(Config{Dir: dir, Shards: pcShards, SnapshotEvery: pcSnapEvery, TTL: pcTTL,
		Clock: clock, Faults: wal, Versions: vs})
	if err != nil {
		t.Fatal(err)
	}
	pc := &powerCut{t: t, rng: rand.New(rand.NewSource(22)), dir: dir, st: st, vs: vs, wal: wal,
		evicted: map[string]bool{}, native: map[string]bool{}, modes: map[string]int{}}

	// Act one: the store is a replica. Its primary has compacted every
	// shard, so catch-up starts with a snapshot install (chunks
	// negotiated, shard root adopted) and goes on in batches of frames,
	// several turns of one session to a batch.
	pvs := vstore.NewMemory()
	primary, err := Open(Config{Dir: t.TempDir(), Shards: pcShards, SnapshotEvery: 6, Versions: pvs})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := primary.Close(); err != nil {
			t.Errorf("close primary: %v", err)
		}
	}()
	for i := 0; i < 8; i++ {
		e, err := primary.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		pc.ids = append(pc.ids, e.ID)
	}
	talk := func(rounds int) {
		for _, id := range pc.ids {
			e, _ := primary.Get(id)
			for j := 0; j < rounds; j++ {
				n := len(e.committed) / 2
				commitPair(t, primary, e, fmt.Sprintf("primary question %d of %s", n, id), fmt.Sprintf("primary answer %d", n), 0.25+float64(n)/13)
			}
		}
	}
	catchUp := func() (installs int) {
		for shard := 0; shard < pcShards; shard++ {
			for {
				b, err := primary.PullFrames(shard, st.ReplicationCursor(shard), 3)
				if err != nil {
					t.Fatal(err)
				}
				if b.Empty() {
					break
				}
				what := fmt.Sprintf("a batch of %d frames for shard %d", len(b.Frames), shard)
				if b.SnapshotRoot != "" {
					pullChunks(t, pvs, vs, vstore.Hash(b.SnapshotRoot), 0)
					installs++
					what = fmt.Sprintf("a snapshot install at %d with %d frames for shard %d", b.SnapshotSeq, len(b.Frames), shard)
				}
				appends := wal.appends
				if err := st.ApplyBatch(b); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if got := wal.appends - appends; got > 1 || (got == 0 && len(b.Frames) > 0) {
					t.Fatalf("%s made %d WAL appends, want 1", what, got)
				}
				pc.acked(what)
			}
		}
		return installs
	}
	talk(3)
	pc.everyOffset = true
	if catchUp() == 0 {
		t.Fatal("no shard of the primary had compacted: the script has no snapshot install")
	}
	talk(2)
	catchUp()
	// One shipped session goes on past its first fold, caught up every
	// other pair: the replica's replay cuts the window's 16th pair into a
	// sealed chunk from the tree it remembers, as the primary did.
	long := pc.ids[0]
	foldedByReplay := false
	for e, _ := primary.Get(long); len(e.committed) < 2*pcLongPairs; {
		n := len(e.committed) / 2
		commitPair(t, primary, e, fmt.Sprintf("primary question %d of %s", n, long), fmt.Sprintf("primary answer %d", n), 0.25+float64(n)/13)
		if n%2 == 0 {
			continue
		}
		held := peek(st, long)
		before, remembered := len(held.committed), held.tree != nil
		if catchUp() == 0 && remembered && before < turnsPerChunk && len(held.committed) >= turnsPerChunk {
			foldedByReplay = true // no install: held is still the shard's entry
		}
	}
	if !foldedByReplay {
		t.Fatal("the script never replays a shipped session across a fold from a remembered tree")
	}

	// Act two: promoted, the store takes turns itself — on the sessions
	// it was shipped and on new ones — across several compactions of
	// every shard.
	for i := 0; i < 6; i++ {
		e, err := st.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		pc.ids = append(pc.ids, e.ID)
		pc.native[e.ID] = true
		pc.acked("create " + e.ID)
	}
	n := 0
	pc.everyOffset = true
	for round := 0; round < 7; round++ {
		for i := len(pc.ids) - 1; i >= 0; i-- { // the new sessions first
			if pc.rng.Intn(4) == 0 {
				continue
			}
			n++
			pc.turn(pc.ids[i], n)
		}
	}
	// And one of the new sessions goes on past its first fold.
	for id := pc.ids[len(pc.ids)-6]; len(peek(st, id).committed) < 2*pcLongPairs; { // the first of them: never swept below
		n++
		pc.turn(id, n)
	}

	// Act three: some sessions sit idle past the TTL and are swept; the
	// rest carry on.
	clock.Advance(pcTTL/2 + time.Minute)
	for i, id := range pc.ids {
		if i%3 != 0 {
			n++
			pc.turn(id, n)
		}
	}
	clock.Advance(pcTTL/2 + time.Minute)
	swept, err := st.SweepIdle()
	if err != nil || swept == 0 {
		t.Fatalf("SweepIdle = %d, %v; want the idle third evicted", swept, err)
	}
	for i, id := range pc.ids {
		pc.evicted[id] = i%3 == 0
	}
	pc.acked(fmt.Sprintf("a sweep of %d idle sessions", swept))
	for round := 0; round < 2; round++ {
		for _, id := range pc.ids {
			if !pc.evicted[id] {
				n++
				pc.turn(id, n)
			}
		}
	}

	for _, mode := range []string{"flushed", "every offset", "nothing", "whole tail", "page zeroed"} {
		if pc.modes[mode] == 0 {
			t.Errorf("the seed never chose %q: %v", mode, pc.modes)
		}
	}
	compactions := 0
	for shard := 0; shard < pcShards; shard++ {
		log, err := vs.Log(ShardRoot(shard))
		if err != nil {
			t.Fatal(err)
		}
		compactions += len(log) - 1 // the first is the install
	}
	if compactions < 2*pcShards {
		t.Errorf("the script crossed %d compactions, want at least %d", compactions, 2*pcShards)
	}
	t.Logf("%d acknowledged operations, %d recoveries (%v), %d compactions, %d turns at one fsync each",
		pc.ops, pc.recoveries, pc.modes, compactions, n)

	// A clean shutdown leaves nothing unflushed anywhere.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	for _, sh := range st.shards {
		if sh.wal.Synced() != sh.wal.Size() {
			t.Errorf("after Close shard %d's WAL is flushed to %d of %d bytes", sh.idx, sh.wal.Synced(), sh.wal.Size())
		}
	}
	if synced, size := vs.JournalSynced(); synced != size {
		t.Errorf("after Close the journal is flushed to %d of %d bytes", synced, size)
	}
	if err := vs.Close(); err != nil {
		t.Fatal(err)
	}
}
