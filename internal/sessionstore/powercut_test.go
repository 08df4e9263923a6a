package sessionstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/reliable-cda/cda/internal/resilience"
	"github.com/reliable-cda/cda/internal/vstore"
)

// The power-cut model. Every other crash test in the repository is a
// process kill (the page cache survives, so everything written is read
// back) or a torn write at the append seam. A power cut is the crash
// that discards bytes which were written and not flushed. Every record
// is one flushed journal append before it is acknowledged, so after
// every acknowledged operation the test below requires the journal to
// be flushed to its end — nothing a cut could take — and recovers the
// directory as it stands, holding it to the store that never crashed
// commit for commit (hash, parent, turn, stamp: nothing is derived
// again) and each shard's cursor and replication tail record for record.
// For the first record batch the store applies as a replica, the first
// create and the first turn it takes itself, and a seeded choice of the
// rest, it also recovers what a cut during that operation's write could
// leave: every prefix of the write, byte by byte, or the write with one
// 4 KiB page of it never having reached the disk. Each of those is the
// state before the operation with a prefix of the write's records —
// for one record, none of it.

const (
	pcShards    = 4
	pcSnapEvery = 16
	pcTTL       = time.Hour
	pcPage      = 4096
	// pcLongPairs is how far the script takes one shipped and one native
	// session: past the fold at 16 pairs, so the trees the recovered
	// stores replay from the journal are held against trees the store
	// that never crashed cut turn by turn from the ones it remembered.
	pcLongPairs = 19
)

// versionEntry is what a replica's session version log agrees on with
// its primary's: the turn count and the tree (commit hashes, parents
// and stamps are each node's own).
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
	if err := vs.Close(); err != nil {
		t.Fatal(err)
	}
}

// sameRecords reports whether two replication tails hold the same
// records, field for field.
func sameRecords(a, b []record) bool {
	return slices.EqualFunc(a, b, func(x, y record) bool { return reflect.DeepEqual(x, y) })
}

// turnPrefix is the first k turns of a rendered transcript.
func turnPrefix(transcript string, k int) string {
	return strings.Join(strings.SplitAfter(transcript, "\n")[:k], "")
}

// shardState renders one shard of st as replication sees it: its
// horizon, and every record after it.
func shardState(st *Store, shard int) (int64, []record) {
	sh := st.shards[shard]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.shipBase, slices.Clone(sh.tail)
}

// powerCut drives the store under test and, after every acknowledged
// operation, the recoveries of what a power cut could have left of it.
type powerCut struct {
	t   *testing.T
	rng *rand.Rand
	dir string
	st  *Store
	vs  *vstore.Store
	wal *journalProbe // counts journal appends: each is one write and one fsync

	ids     []string        // every session the store has held, in arrival order
	evicted map[string]bool // of which these are gone
	native  map[string]bool // and these took every turn on this store

	// written is the journal's size after the last acknowledged
	// operation, where the next one's write starts, and appends how many
	// appends the journal had taken then.
	written int64
	appends int
	// before is each shard's horizon and tail then.
	before [pcShards]struct {
		base int64
		tail []record
	}

	// everyOffset asks for the byte-by-byte treatment of the next
	// operation's write.
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
	// The ack contract: nothing acknowledged is waiting for a flush.
	synced, size := pc.vs.JournalSynced()
	if synced != size {
		t.Fatalf("after %s: the journal is flushed to %d of %d bytes", what, synced, size)
	}
	journal, err := os.ReadFile(pc.journalPath(pc.dir))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(journal)) != size {
		t.Fatalf("after %s: journal file is %d bytes, the log says %d", what, len(journal), size)
	}
	pc.modes["flushed"]++
	pc.recover(what, journal)
	// A cut during an operation of one append leaves the state before it
	// with a prefix of that append's records. (One that also compacts
	// takes two, and its horizon hides the records it folded.)
	start := pc.written
	switch {
	case size == start || pc.wal.appends-pc.appends != 1:
	case pc.everyOffset:
		// Every prefix of the write the operation's acknowledgement
		// waited for.
		pc.everyOffset = false
		pc.modes["every offset"]++
		dir := pc.copyDir(what)
		for cut := start; cut < size; cut++ {
			what := fmt.Sprintf("%s, journal cut at byte %d of [%d, %d)", what, cut, start, size)
			if (cut-start)%257 == 0 {
				pc.recoverCut(what, journal[:cut]) // the whole protocol on a sample
				continue
			}
			// Recovery alone on the rest, in one directory: an open
			// writes to no file.
			pc.recoveries++
			if err := os.WriteFile(pc.journalPath(dir), journal[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			st, vs := pc.reopen(what, dir)
			pc.requireCut(what, st)
			abandon(t, st, vs)
		}
	case pc.rng.Intn(3) == 0:
		// A later page persisted, an earlier one did not: the bytes of one
		// page of the write read back as zeros.
		first, last := start/pcPage, (size-1)/pcPage
		page := first + int64(pc.rng.Intn(int(last-first)+1))
		img := bytes.Clone(journal)
		lo, hi := max(page*pcPage, start), min((page+1)*pcPage, size)
		clear(img[lo:hi])
		pc.modes["page zeroed"]++
		pc.recoverCut(fmt.Sprintf("%s, journal bytes [%d, %d) of [%d, %d) never written", what, lo, hi, start, size), img)
	}
	pc.written, pc.appends = size, pc.wal.appends
	for shard := range pcShards {
		pc.before[shard].base, pc.before[shard].tail = shardState(pc.st, shard)
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
		if !f.IsDir() || f.Name() != "vstore" {
			t.Fatalf("%s: the data dir holds %s beside vstore/", what, f.Name())
		}
	}
	return dir
}

// recover is the whole protocol on the acknowledged image of the data
// dir: reopen it and require everything the operations so far were
// acknowledged on, reopen it again and require that nothing changed,
// then commit the next turn.
func (pc *powerCut) recover(what string, journal []byte) {
	pc.t.Helper()
	pc.protocol(what, journal, true, func(what string, st *Store, vs *vstore.Store) {
		pc.requireAcknowledged(what, st, vs, true)
	})
}

// recoverCut is the protocol on an image a cut during the last write
// left: reopen it and require the state before that write with a prefix
// of its records, then go on as recover does. A cut through a snapshot
// install after its root may take the versions the replica keeps of the
// sessions it installs (DESIGN.md §15), so a session's as-of history
// need not reach back to the turn before the next one.
func (pc *powerCut) recoverCut(what string, journal []byte) {
	pc.t.Helper()
	pc.protocol(what, journal, false, func(what string, st *Store, _ *vstore.Store) { pc.requireCut(what, st) })
}

// protocol recovers journal as the data dir's, holds it to require,
// reopens it again and requires the same, and commits the next turn, as
// of which the turn count before it reads back — on a store that held a
// version at it, when whole is not set.
func (pc *powerCut) protocol(what string, journal []byte, whole bool, require func(string, *Store, *vstore.Store)) {
	t := pc.t
	t.Helper()
	pc.recoveries++
	dir := pc.copyDir(what)
	if err := os.WriteFile(pc.journalPath(dir), journal, 0o644); err != nil {
		t.Fatal(err)
	}
	st, vs := pc.reopen(what, dir)
	require(what, st, vs)
	logs := logsOf(t, vs)
	abandon(t, st, vs)
	reopened, err := os.ReadFile(pc.journalPath(dir))
	if err != nil {
		t.Fatal(err)
	}

	// A second reopen finds the same.
	what += ", reopened twice"
	st, vs = pc.reopen(what, dir)
	after, err := os.ReadFile(pc.journalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, reopened) {
		t.Fatalf("%s: the second open changed the journal (%d bytes, were %d)", what, len(after), len(reopened))
	}
	if got := logsOf(t, vs); !reflect.DeepEqual(got, logs) {
		t.Fatalf("%s: root logs changed:\n got: %+v\nwant: %+v", what, got, logs)
	}
	require(what, st, vs)

	// And the recovered store takes the next turn.
	var live []string
	for _, id := range pc.ids {
		if e := peek(st, id); e != nil {
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
		sess, c, err := st.TranscriptAsOf(id, turns-2)
		if (whole || err == nil && c.Turn == turns-2) && (err != nil || Transcript(sess) != before) {
			t.Fatalf("%s: %s as of turn %d after the next turn = %v, want what it held before it", what, id, turns-2, err)
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

// requireCut holds a store recovered from a cut during the last write to
// the state before it with a prefix of that write's records: per shard,
// the horizon it had then or the live store's now, and a tail that
// extends the tail it had then by a prefix of the live store's records.
// The tail holds every record since the horizon, so that is the state.
func (pc *powerCut) requireCut(what string, st *Store) {
	t := pc.t
	t.Helper()
	for shard := range pcShards {
		base, tail := shardState(st, shard)
		liveBase, liveTail := shardState(pc.st, shard)
		prev := pc.before[shard]
		var from []record // what the recovered tail must extend
		switch base {
		case prev.base:
			from = prev.tail
		case liveBase: // the write installed a shard root
		default:
			t.Fatalf("%s: shard %d recovered at horizon %d; it was at %d, and is at %d", what, shard, base, prev.base, liveBase)
		}
		k := len(tail) - len(from)
		extends := k >= 0 && sameRecords(tail[:len(from)], from)
		// The records past what it had, ship sequences base+len(from)+1…,
		// are the live store's records at those sequences.
		off := int(base-liveBase) + len(from)
		if k > 0 && (off < 0 || off+k > len(liveTail) || !sameRecords(tail[len(from):], liveTail[off:off+k])) {
			extends = false
		}
		if !extends {
			t.Fatalf("%s: shard %d recovered %d records after horizon %d; want the %d it had, then a prefix of the live store's", what, shard, len(tail), base, len(from))
		}
	}
}

// requireAcknowledged holds a recovered store to the store that never
// crashed: the same sessions live and gone, every transcript byte for
// byte, every root log commit for commit, every as-of read the prefix it
// names (everyAsOf; otherwise the newest of each session), and each
// shard's horizon and replication tail byte for byte.
func (pc *powerCut) requireAcknowledged(what string, st *Store, vs *vstore.Store, everyAsOf bool) {
	t := pc.t
	t.Helper()
	if got, want := logsOf(t, vs), logsOf(t, pc.vs); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: root logs\n got: %+v\nwant: %+v", what, got, want)
	}
	for shard := range pcShards {
		base, tail := shardState(st, shard)
		liveBase, liveTail := shardState(pc.st, shard)
		if base != liveBase || !sameRecords(tail, liveTail) {
			t.Fatalf("%s: shard %d recovered %d records after horizon %d; the live store has %d after %d", what, shard, len(tail), base, len(liveTail), liveBase)
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
		log, err := vs.Log(SessionRoot(id))
		if err != nil {
			t.Fatalf("%s: version log of %s: %v", what, id, err)
		}
		if pc.native[id] && len(log) != 1+turns/2 {
			t.Fatalf("%s: session %s committed %d pairs and has %d versions, want one more: its creation", what, id, turns/2, len(log))
		}
		if !everyAsOf {
			log = log[len(log)-1:]
		}
		for _, c := range log {
			sess, got, err := st.TranscriptAsOf(id, c.Turn)
			if err != nil || got != c || Transcript(sess) != turnPrefix(want, c.Turn) {
				t.Fatalf("%s: %s as of turn %d = commit %+v, %v; want %+v and that prefix of the transcript", what, id, c.Turn, got, err, c)
			}
		}
	}
	if st.Len() != live {
		t.Fatalf("%s: recovered %d live sessions, want %d", what, st.Len(), live)
	}
}

// turn commits one pair on the store under test and holds it to one
// journal append, and a compaction to one more.
func (pc *powerCut) turn(id string, n int) {
	t := pc.t
	t.Helper()
	sh := pc.st.shards[pc.st.ShardIndex(id)]
	sh.mu.Lock()
	want := 1
	if len(sh.tail)+1 >= pcSnapEvery {
		want = 2
	}
	sh.mu.Unlock()
	appends := pc.wal.appends
	commitPair(t, pc.st, peek(pc.st, id), fmt.Sprintf("question %d of %s", n, id), fmt.Sprintf("answer %d", n), 0.5+float64(n%7)/17)
	if got := pc.wal.appends - appends; got != want {
		t.Fatalf("turn %d of %s made %d journal appends, want %d", n, id, got, want)
	}
	pc.acked(fmt.Sprintf("turn %d of %s", n, id))
}

func TestPowerCutKeepsEveryAcknowledgedTurnAndVersion(t *testing.T) {
	dir := t.TempDir()
	wal := &journalProbe{}
	vs, err := vstore.Open(vstore.Config{Dir: filepath.Join(dir, "vstore"), Faults: wal})
	if err != nil {
		t.Fatal(err)
	}
	clock := resilience.NewVirtualClock()
	st, err := Open(Config{Dir: dir, Shards: pcShards, SnapshotEvery: pcSnapEvery, TTL: pcTTL,
		Clock: clock, Versions: vs})
	if err != nil {
		t.Fatal(err)
	}
	pc := &powerCut{t: t, rng: rand.New(rand.NewSource(22)), dir: dir, st: st, vs: vs, wal: wal,
		evicted: map[string]bool{}, native: map[string]bool{}, modes: map[string]int{}}

	// Act one: the store is a replica. Its primary has compacted every
	// shard, so catch-up starts with a snapshot install (chunks
	// negotiated, shard root adopted) and goes on in batches of records,
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
				b, err := primary.PullRecords(shard, st.ReplicationCursor(shard), 3)
				if err != nil {
					t.Fatal(err)
				}
				if b.Empty() {
					break
				}
				what := fmt.Sprintf("a batch of %d records for shard %d", len(b.Records), shard)
				if b.SnapshotRoot != "" {
					pullChunks(t, pvs, vs, vstore.Hash(b.SnapshotRoot), 0)
					installs++
					what = fmt.Sprintf("a snapshot install at %d with %d records for shard %d", b.SnapshotSeq, len(b.Records), shard)
				}
				// The chunks are no part of the batch's write.
				pc.written, pc.appends = wal.bytes, wal.appends
				appends := wal.appends
				if err := st.ApplyBatch(b); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if got := wal.appends - appends; got != 1 {
					t.Fatalf("%s made %d journal appends, want 1", what, got)
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
	// Every version the replica holds — one per record shipped, and one
	// per session a snapshot install brought — is the primary's: the
	// same tree at the same turn.
	for _, id := range pc.ids {
		plog, err := pvs.Log(SessionRoot(id))
		if err != nil {
			t.Fatal(err)
		}
		rlog, err := vs.Log(SessionRoot(id))
		if err != nil {
			t.Fatal(err)
		}
		want := versionEntries(plog)
		for _, v := range versionEntries(rlog) {
			if !slices.Contains(want, v) {
				t.Fatalf("replica's version of %s at turn %d pins %s, which the primary's log %v does not", id, v.Turn, v.Tree, want)
			}
		}
	}

	// Act two: promoted, the store takes turns itself — on the sessions
	// it was shipped and on new ones — across several compactions of
	// every shard.
	pc.everyOffset = true
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
	// One idle session is evicted as its lookup finds it, the rest by the
	// sweep.
	pc.everyOffset = true
	if _, status := st.Get(pc.ids[0]); status != Gone {
		t.Fatalf("an idle session's lookup: status %v, want Gone", status)
	}
	pc.evicted[pc.ids[0]] = true
	pc.acked("the eviction of " + pc.ids[0])
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

	for _, mode := range []string{"flushed", "every offset", "page zeroed"} {
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

	// A clean shutdown leaves nothing unflushed, and nothing to replay.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if synced, size := vs.JournalSynced(); synced != size {
		t.Errorf("after Close the journal is flushed to %d of %d bytes", synced, size)
	}
	if err := vs.Close(); err != nil {
		t.Fatal(err)
	}
}
