package sessionstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/reliable-cda/cda/internal/vstore"
)

// The session tree where it can be wrong: chunks no encoder writes
// (a peer's bytes are input), the remembered tree against the cold
// encode, and what a version costs.

// mustPut stores one hand-built chunk; it is hash-valid whatever it says.
func mustPut(t testing.TB, vs *vstore.Store, kind string, refs []vstore.Hash, data string) vstore.Hash {
	t.Helper()
	h, err := vs.Put(kind, refs, []byte(data))
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// turnsJSON is the data of a turns chunk of n turns.
func turnsJSON(t testing.TB, n int) string {
	t.Helper()
	turns := make([]turnRec, n)
	for i := range turns {
		turns[i] = turnRec{Role: "user", Text: fmt.Sprintf("turn %d", i), Intent: "query"}
	}
	data, err := json.Marshal(turns)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestForgedSessionChunkIsAnError: every shape of sess, turns and shard
// chunk that no encoder writes — each one hash-valid, as a peer could
// ship it — is an error naming the chunk from every reader (the tree
// decoders, the as-of read, the snapshot materializer); none panics, and
// a replica handed one as a snapshot root installs nothing. Beside them,
// a tree cut like no encoder cuts it but well-formed reads back: the
// reader holds chunks to their node, not to a layout.
func TestForgedSessionChunkIsAnError(t *testing.T) {
	vs := vstore.NewMemory()
	replica := NewMemory(Config{Shards: 1, Versions: vs})
	pair := mustPut(t, vs, "turns", nil, turnsJSON(t, 2))
	three := mustPut(t, vs, "turns", nil, turnsJSON(t, 3))
	one := mustPut(t, vs, "turns", nil, turnsJSON(t, 1))
	sess := func(id string, turns, per int, refs ...vstore.Hash) vstore.Hash {
		return mustPut(t, vs, "sess", refs, fmt.Sprintf(`{"id":%q,"num":1,"turns":%d,"per":%d}`, id, turns, per))
	}
	good := sess("good", 6, 32, one, three, pair)
	if ss, err := decodeSessionTree(vs, good); err != nil || len(ss.Turns) != 6 || ss.ID != "good" {
		t.Fatalf("a well-formed tree of 1 + 3 + 2 turns decodes to %d turns, %v", len(ss.Turns), err)
	}
	absent := vstore.Hash(strings.Repeat("0", 64))

	// Session trees: node is the sess chunk to decode, culprit the chunk
	// the error must name.
	type forged struct {
		name          string
		node, culprit vstore.Hash
	}
	of := func(name string, culprit vstore.Hash, turns, per int) forged {
		return forged{name, sess(name, turns, per, culprit), culprit}
	}
	self := func(name string, node vstore.Hash) forged { return forged{name, node, node} }
	empty := mustPut(t, vs, "turns", nil, `[]`)
	null := mustPut(t, vs, "turns", nil, `null`)
	withRefs := mustPut(t, vs, "turns", []vstore.Hash{pair}, turnsJSON(t, 2))
	object := mustPut(t, vs, "turns", nil, `{"role":"user","text":"not an array"}`)
	leaf := mustPut(t, vs, "leaf", nil, turnsJSON(t, 2))
	sessions := []forged{
		of("an empty turns chunk", empty, 0, 32),
		of("a null turns chunk", null, 0, 32),
		of("a turns chunk of more than per turns", three, 3, 2),
		of("a turns chunk with refs", withRefs, 2, 32),
		of("a turns chunk that is no array", object, 1, 32),
		of("a ref of another kind", leaf, 2, 32),
		of("a session node for a ref", good, 6, 32),
		of("a missing ref", absent, 2, 32),
		self("per of zero", sess("per0", 2, 0, pair)),
		self("a negative per", sess("per-1", 2, -1, pair)),
		self("negative turns", sess("turns-1", -1, 32)),
		self("a total that disagrees", sess("total", 4, 32, pair)),
		self("no data", mustPut(t, vs, "sess", []vstore.Hash{pair}, `null`)),
	}
	// Shard trees: each holds one of the session trees above, or is
	// ill-formed itself.
	shard := func(ids string, refs ...vstore.Hash) vstore.Hash {
		return mustPut(t, vs, "shard", refs, fmt.Sprintf(`{"maxNum":9,"shipSeq":7,"ids":%s}`, ids))
	}
	other := sess("other", 2, 32, pair)
	shards := []forged{
		self("more ids than refs", shard(`["good","other"]`, good)),
		self("more refs than ids", shard(`["good"]`, good, other)),
		self("an id twice", shard(`["good","good"]`, good, good)),
		self("an id that is not its session's", shard(`["good","else"]`, good, other)),
	}
	for _, f := range sessions {
		shards = append(shards, forged{"a shard of " + f.name, shard(fmt.Sprintf("[%q]", f.name), f.node), f.culprit})
	}

	names := func(err error, culprit vstore.Hash) bool {
		return err != nil && strings.Contains(err.Error(), string(culprit))
	}
	for i, f := range sessions {
		if _, err := decodeSessionTree(vs, f.node); !names(err, f.culprit) {
			t.Errorf("%s: decodeSessionTree = %v, want an error naming %s", f.name, err, f.culprit)
		}
		id := fmt.Sprintf("forged-%d", i)
		if _, err := vs.Commit(SessionRoot(id), f.node, 2); err != nil {
			t.Fatal(err)
		}
		if _, _, err := replica.TranscriptAsOf(id, 2); !names(err, f.culprit) {
			t.Errorf("%s: TranscriptAsOf = %v, want an error naming %s", f.name, err, f.culprit)
		}
	}
	for _, f := range shards {
		if _, err := decodeShardTree(vs, f.node); !names(err, f.culprit) {
			t.Errorf("%s: decodeShardTree = %v, want an error naming %s", f.name, err, f.culprit)
		}
		c, err := vs.Commit("shard/forged", f.node, 7)
		if err != nil {
			t.Fatal(err)
		}
		// The materializer answers an incomplete closure with the typed
		// error that starts a negotiation; everything else as the decoder.
		var missing *MissingChunksError
		if _, err := replica.materializeShardSnapshot(c.Hash, 7); !names(err, f.culprit) && !(f.culprit == absent && errors.As(err, &missing)) {
			t.Errorf("%s: materializeShardSnapshot = %v, want an error naming %s", f.name, err, f.culprit)
		}
		if err := replica.ApplyBatch(ShipBatch{Shard: 0, SnapshotRoot: string(c.Hash), SnapshotSeq: 7, PrimaryCursor: 7}); err == nil {
			t.Errorf("%s: the replica applied it", f.name)
		}
		if replica.Len() != 0 || replica.ReplicationCursor(0) != 0 {
			t.Fatalf("%s: the replica holds %d sessions at cursor %d, want nothing installed", f.name, replica.Len(), replica.ReplicationCursor(0))
		}
	}
}

// fuzzFixtureChunks opens a copy of each fixture and returns a store
// holding every chunk their roots reach, and those chunks.
func fuzzFixtureChunks(f *testing.F) (*vstore.Store, []vstore.Packet) {
	f.Helper()
	base := vstore.NewMemory()
	var all []vstore.Packet
	for _, fixture := range []string{formatFixtureV5, treeFixtureV5} {
		// A copy: an open may truncate, and a fixture is read-only.
		vs, err := vstore.Open(vstore.Config{Dir: filepath.Join(copyFixture(f, fixture), "vstore")})
		if err != nil {
			f.Fatal(err)
		}
		for _, root := range vs.Roots() {
			log, err := vs.Log(root)
			if err != nil {
				f.Fatal(err)
			}
			for _, c := range log {
				closure, err := vs.Closure(c.Hash)
				if err != nil {
					f.Fatal(err)
				}
				for _, h := range closure {
					if base.Has(h) {
						continue
					}
					p, err := vs.PacketOf(h)
					if err != nil {
						f.Fatal(err)
					}
					if err := base.AddPackets([]vstore.Packet{p}); err != nil {
						f.Fatal(err)
					}
					all = append(all, p)
				}
			}
		}
		if err := vs.Close(); err != nil {
			f.Fatal(err)
		}
	}
	return base, all
}

// FuzzDecodeSessionTree feeds the tree decoders one chunk a peer could
// ship — any bytes that hash to their address — over the chunks of the
// v5 fixtures, which its refs may name: the decoders answer with a
// transcript or an error, never a panic, and whatever decodes, encoded
// again from nothing, is a tree that decodes to the same transcript. A
// turns chunk is also read through a session node made for it.
func FuzzDecodeSessionTree(f *testing.F) {
	base, seeds := fuzzFixtureChunks(f)
	for _, p := range seeds {
		f.Add(p.Data)
		// A chunk with refs also as stores before binary refs wrote it,
		// and cut one byte short: both refused.
		if refs, err := base.Refs(p.Hash); err != nil {
			f.Fatal(err)
		} else if len(refs) > 0 {
			var data json.RawMessage
			kind, err := base.Data(p.Hash, &data)
			if err != nil {
				f.Fatal(err)
			}
			old, err := json.Marshal(struct {
				K string          `json:"k"`
				R []vstore.Hash   `json:"r"`
				D json.RawMessage `json:"d,omitempty"`
			}{kind, refs, data})
			if err != nil {
				f.Fatal(err)
			}
			f.Add(old)
			f.Add(p.Data[:len(p.Data)-1])
		}
	}
	for _, seed := range []string{
		`{"k":"turns","d":[]}`,
		`{"k":"turns","d":null}`,
		`{"k":"turns","d":[{"role":"user","text":"q","intent":"query","confidence":0.5}]}`,
		`{"k":"sess","d":{"id":"s","num":1,"turns":0,"per":32}}`,
		`{"k":"sess","d":{"id":"s","num":1,"turns":2,"per":32}}`,
		`{"k":"sess","d":{"id":"s","num":1,"turns":0,"per":0}}`,
		`{"k":"shard","d":{"maxNum":1,"shipSeq":0,"ids":[]}}`,
		`{"k":"shard","d":{"maxNum":1,"shipSeq":0,"ids":["s"]}}`,
		`{"root":"session/s","log":[]}`,
		`null`,
		`{}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		vs := vstore.NewMemory()
		h := vstore.Hash(sha256Hex(payload))
		if err := vs.AddPackets([]vstore.Packet{{Hash: h, Data: payload}}); err != nil {
			return // no chunk at all
		}
		// What it references, as far as the fixtures hold it.
		for moved := true; moved; {
			moved = false
			for _, want := range vs.WantList(h, 0) {
				if p, err := base.PacketOf(want); err == nil {
					if err := vs.AddPackets([]vstore.Packet{p}); err != nil {
						t.Fatal(err)
					}
					moved = true
				}
			}
		}
		nodes := []vstore.Hash{h}
		var turns []turnRec
		if kind, err := vs.Data(h, &turns); err == nil && kind == "turns" {
			data, err := json.Marshal(sessData{ID: "fuzz", Num: 1, Turns: len(turns), Per: turnsPerChunk})
			if err != nil {
				t.Fatal(err)
			}
			nodes = append(nodes, mustPut(t, vs, "sess", []vstore.Hash{h}, string(data)))
		}
		for _, node := range nodes {
			if snap, err := decodeShardTree(vs, node); err == nil {
				ids := map[string]bool{}
				for _, ss := range snap.Sessions {
					if ids[ss.ID] {
						t.Fatalf("shard tree %s decoded session %q twice", node, ss.ID)
					}
					ids[ss.ID] = true
				}
			}
			ss, err := decodeSessionTree(vs, node)
			if err != nil {
				continue
			}
			again := vstore.NewMemory()
			b := again.NewBatch()
			tree, err := encodeSessionTree(b, ss)
			if err != nil {
				t.Fatalf("session tree %s decoded and does not encode: %v", node, err)
			}
			if _, err := b.Commit(SessionRoot(ss.ID), tree.sess, len(ss.Turns)); err != nil {
				t.Fatal(err)
			}
			if back, err := decodeSessionTree(again, tree.sess); err != nil || !reflect.DeepEqual(back, ss) {
				t.Fatalf("session tree %s re-encoded as %s decodes to %+v, %v; want %+v", node, tree.sess, back, err, ss)
			}
		}
	})
}

// randomTurns is a seeded transcript of n turns: texts of uneven length
// with the characters JSON escapes, confidences that need every digit.
func randomTurns(rng *rand.Rand, n int) []turnRec {
	turns := make([]turnRec, n)
	for i := range turns {
		text := strings.Repeat("é \"q\" <t> & ", rng.Intn(4)) + fmt.Sprintf("turn %d", rng.Intn(1000))
		if i%2 == 0 {
			turns[i] = turnRec{Role: "user", Text: text, Intent: "query"}
		} else {
			turns[i] = turnRec{Role: "system", Text: text, Confidence: rng.Float64()}
		}
	}
	return turns
}

// TestIncrementalTreeEqualsColdTree is the property the remembered tree
// stands on: over seeded transcripts of 1 to 200 turns, for every prefix
// — odd counts included — the tree encoded from what the last committed
// version left (which may lag by several turns: a commit that failed
// leaves it where it was) has the session node and the chunk list of the
// tree encoded from nothing, and is whole in the store, memory-only and
// dir-backed.
func TestIncrementalTreeEqualsColdTree(t *testing.T) {
	dirBacked, err := vstore.Open(vstore.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := dirBacked.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	for name, vs := range map[string]*vstore.Store{"memory": vstore.NewMemory(), "dir": dirBacked} {
		rng := rand.New(rand.NewSource(23))
		for trial := 0; trial < 8; trial++ {
			turns := randomTurns(rng, 1+rng.Intn(200))
			if trial == 0 {
				turns = randomTurns(rng, 200)
			}
			id := fmt.Sprintf("p%d", trial)
			var memo *sessionTree
			for n := 1; n <= len(turns); n++ {
				ss := sessionSnap{ID: id, Num: trial + 1, Focus: fmt.Sprintf("focus %d", rng.Intn(3)), Turns: turns[:n], tree: memo}
				b := vs.NewBatch()
				tree, err := encodeSessionTree(b, ss)
				if err != nil {
					t.Fatal(err)
				}
				cold := coldTree(t, ss)
				if tree.turns != n || tree.sess != cold.sess || !reflect.DeepEqual(tree.refs, cold.refs) {
					t.Fatalf("%s store, %d of %d turns from the tree at %v:\n got: %+v\nwant: %+v", name, n, len(turns), memo, tree, cold)
				}
				if rng.Intn(5) == 0 {
					continue // the commit failed: nothing landed, nothing is remembered
				}
				if _, err := b.CommitUnsynced(SessionRoot(id), tree.sess, n); err != nil {
					t.Fatal(err)
				}
				back, err := decodeSessionTree(vs, tree.sess)
				if err != nil || !vs.HasClosure(tree.sess) || !reflect.DeepEqual(back.Turns, turns[:n]) {
					t.Fatalf("%s store, %d of %d turns: the committed tree reads back as %d turns, %v", name, n, len(turns), len(back.Turns), err)
				}
				memo = tree
			}
		}
	}
}

// TestFailedVersionCommitKeepsTheTree: a version commit that fails and
// kills nothing — here on the very turn that folds the window — leaves
// the entry remembering the last version that landed, and the next
// turn's version is complete: it encodes the sealed chunk the failed
// commit never stored, and every as-of read is a prefix.
func TestFailedVersionCommitKeepsTheTree(t *testing.T) {
	probe := &journalProbe{}
	vs, err := vstore.Open(vstore.Config{Dir: t.TempDir(), Faults: probe})
	if err != nil {
		t.Fatal(err)
	}
	st, err := Open(Config{Dir: t.TempDir(), Shards: 1, SnapshotEvery: 1 << 20, Versions: vs})
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
	for j := 0; j < 15; j++ {
		commitPair(t, st, e, fmt.Sprintf("q%d", j), fmt.Sprintf("a%d", j), 0.5)
	}
	before := peek(st, e.ID).tree
	probe.failCommit = true
	commitPair(t, st, e, "q15", "a15", 0.5) // turn 32: acknowledged, its version refused
	if err := st.DeferredError(0); !errors.Is(err, errProbeCommit) {
		t.Fatalf("deferred error after the refused version = %v, want the injected one", err)
	}
	if tree := peek(st, e.ID).tree; tree != before || tree.turns != 30 {
		t.Fatalf("after the refused version the entry remembers %+v, want the tree at turn 30 untouched", tree)
	}
	puts := probe.puts
	commitPair(t, st, e, "q16", "a16", 0.5)
	if err := st.DeferredError(0); err != nil {
		t.Fatal(err)
	}
	if got := probe.puts - puts; got != 3 {
		t.Errorf("the turn after the refused version encoded %d chunks, want 3: the sealed window, its pair, the session node", got)
	}
	head, err := vs.Head(SessionRoot(e.ID))
	if err != nil {
		t.Fatal(err)
	}
	tree := peek(st, e.ID).tree
	if head.Turn != 34 || !vs.HasClosure(head.Hash) || tree.turns != 34 || tree.sess != head.Tree || len(tree.refs) != 2 {
		t.Fatalf("head %+v (closure whole = %v), remembered %+v; want the whole tree at turn 34: one sealed chunk and a pair", head, vs.HasClosure(head.Hash), tree)
	}
	transcript := transcriptOf(t, e)
	for turn, at := range map[int]int{30: 30, 32: 30, 34: 34} { // turn 32 has no version: DESIGN §15's known corner
		sess, c, err := st.TranscriptAsOf(e.ID, turn)
		if err != nil || c.Turn != at || Transcript(sess) != turnPrefix(transcript, at) {
			t.Fatalf("as of turn %d = commit at %d, %v; want the %d-turn prefix", turn, c.Turn, err, at)
		}
	}
}

// TestSessionVersionCostIsFlat counts what a version costs at every
// transcript length from 2 turns to past 1 024: two chunks encoded — the
// pair's, or on the turn that fills the window the window's, and the
// session node — and, mid-window, no more journal than that pair chunk,
// that node and the 400 bytes of a commit chunk, a root record and four
// frame headers. A compaction of a shard whose sessions all remember
// their trees encodes the shard node alone. What is not flat is said
// too: a session the process has just recovered pays one full encode.
func TestSessionVersionCostIsFlat(t *testing.T) {
	dir := t.TempDir()
	probe := &journalProbe{}
	open := func() (*Store, *vstore.Store) {
		vs, err := vstore.Open(vstore.Config{Dir: filepath.Join(dir, "vstore"), Faults: probe})
		if err != nil {
			t.Fatal(err)
		}
		st, err := Open(Config{Dir: dir, Shards: 1, SnapshotEvery: 1 << 20, Versions: vs})
		if err != nil {
			t.Fatal(err)
		}
		return st, vs
	}
	st, vs := open()
	long, err := st.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	size := func(h vstore.Hash) int64 {
		p, err := vs.PacketOf(h)
		if err != nil {
			t.Fatal(err)
		}
		return int64(len(p.Data))
	}
	for turns := 2; turns <= 1024+2*turnsPerChunk; turns += 2 {
		puts, bytes := probe.puts, probe.bytes
		commitPair(t, st, long, fmt.Sprintf("how many vacancies in round %d", turns), "as many as in the round before", 0.5)
		if got := probe.puts - puts; got != 2 {
			t.Fatalf("turn %d encoded %d chunks, want 2", turns, got)
		}
		tree := peek(st, long.ID).tree
		if tree == nil || tree.turns != turns {
			t.Fatalf("turn %d: the entry remembers %+v", turns, tree)
		}
		if turns%turnsPerChunk == 0 {
			continue // the fold journals the window's sealed chunk, once
		}
		pair, node := size(tree.refs[len(tree.refs)-1]), size(tree.sess)
		if got := probe.bytes - bytes; got > pair+node+400 {
			t.Fatalf("turn %d journalled %d bytes; its pair chunk is %d, its session node %d", turns, got, pair, node)
		}
	}
	for i := 0; i < 3; i++ {
		e, err := st.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j <= 20*i; j++ { // 1, 21 and 41 pairs
			commitPair(t, st, e, fmt.Sprintf("q%d", j), fmt.Sprintf("a%d", j), 0.5)
		}
	}
	puts := probe.puts
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := probe.puts - puts; got != 1 {
		t.Errorf("compacting a shard of four sessions that remember their trees encoded %d chunks, want the shard node alone", got)
	}
	if err := errors.Join(st.DeferredError(0), st.Close(), vs.Close()); err != nil {
		t.Fatal(err)
	}

	// Recovered, the session remembers nothing: one full encode — every
	// chunk of it already stored — and flat again from the next turn.
	st, vs = open()
	defer func() {
		if err := errors.Join(st.Close(), vs.Close()); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	e, status := st.Get(long.ID)
	if status != Found {
		t.Fatalf("session %s: status %v", long.ID, status)
	}
	for turn, want := range []int{(1024+2*turnsPerChunk)/turnsPerChunk + 2, 2} {
		puts, chunks := probe.puts, vs.NumChunks()
		commitPair(t, st, e, fmt.Sprintf("and %d turns after the restart", turn), "the same again", 0.5)
		if got, added := probe.puts-puts, vs.NumChunks()-chunks; got != want || added != 3 {
			t.Errorf("turn %d after the restart encoded %d chunks and stored %d new ones, want %d and 3 (pair, session node, commit)", turn, got, added, want)
		}
	}
	if err := st.DeferredError(0); err != nil {
		t.Fatal(err)
	}
}
