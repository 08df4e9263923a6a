package sessionstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/reliable-cda/cda/internal/dialogue"
	"github.com/reliable-cda/cda/internal/framelog"
	"github.com/reliable-cda/cda/internal/vstore"
)

// The session tree where it can be wrong: chunks no encoder writes
// (a peer's bytes are input), the remembered tree against the cold
// encode, and what a version costs.

// mustPut stores one hand-built chunk as the tree of a version of root
// "put"; it is hash-valid whatever it says.
func mustPut(t testing.TB, vs *vstore.Store, kind string, refs []vstore.Hash, data string) vstore.Hash {
	t.Helper()
	b := vs.NewBatch(nil)
	h, err := b.Put(kind, refs, []byte(data))
	if err == nil {
		_, err = b.Commit("put", h, 0)
	}
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// closureOf lists every address reachable from h in vs, h included.
func closureOf(t testing.TB, vs *vstore.Store, h vstore.Hash) []vstore.Hash {
	t.Helper()
	seen := map[vstore.Hash]bool{h: true}
	out := []vstore.Hash{h}
	for i := 0; i < len(out); i++ {
		refs, err := vs.Refs(out[i])
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range refs {
			if !seen[r] {
				seen[r] = true
				out = append(out, r)
			}
		}
	}
	return out
}

// turnsData is the data of a turns chunk of n turns.
func turnsData(t testing.TB, n int) string {
	t.Helper()
	turns := make([]dialogue.Turn, n)
	for i := range turns {
		turns[i] = dialogue.Turn{Text: fmt.Sprintf("turn %d", i), Intent: dialogue.IntentQuery}
	}
	data, err := encodeTurns(turns)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// sessNode is the data of a session node.
func sessNode(t testing.TB, id string, turns, per int) string {
	t.Helper()
	data, err := sessData{ID: id, Num: 1, Turns: turns, Per: per}.encode()
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// shardNode is the data of a shard node at ship sequence seq.
func shardNode(t testing.TB, seq int64, ids ...string) string {
	t.Helper()
	data, err := shardData{MaxNum: 9, ShipSeq: seq, IDs: ids}.encode()
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
	pair := mustPut(t, vs, "turns", nil, turnsData(t, 2))
	three := mustPut(t, vs, "turns", nil, turnsData(t, 3))
	one := mustPut(t, vs, "turns", nil, turnsData(t, 1))
	sess := func(id string, turns, per int, refs ...vstore.Hash) vstore.Hash {
		return mustPut(t, vs, "sess", refs, sessNode(t, id, turns, per))
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
	// turn is one turn's bytes as appendTurnRec lays them out, from its
	// parts: flags, intent code, the text with its length, the rest.
	turn := func(flags, intent byte, text string, rest ...byte) string {
		return string(append(append([]byte{flags, intent, byte(len(text))}, text...), rest...))
	}
	conf := func(v float64) []byte { return binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)) }
	turns := func(data string) vstore.Hash { return mustPut(t, vs, "turns", nil, data) }
	withRefs := mustPut(t, vs, "turns", []vstore.Hash{pair}, turnsData(t, 2))
	leaf := mustPut(t, vs, "leaf", nil, turnsData(t, 2))
	goodNode := sessNode(t, "node", 2, 32)
	sessions := []forged{
		of("an empty turns chunk", turns(""), 0, 32),
		of("a turns chunk of more than per turns", three, 3, 2),
		of("a turns chunk with refs", withRefs, 2, 32),
		of("a turns chunk in JSON", turns(`[{"role":"user","text":"q"}]`), 1, 32),
		of("a turns chunk with a trailing byte", turns(turnsData(t, 2)+"\x00"), 2, 32),
		of("a turn text length as an overlong uvarint", turns(turn(0, 6, "")[:2]+"\x81\x00q"), 1, 32),
		of("unknown turn flags", turns(turn(4, 6, "q")), 1, 32),
		of("an unknown intent code", turns(turn(0, byte(len(intentCodes)), "q")), 1, 32),
		of("a stored zero confidence", turns(turn(turnSystem|turnConf, 0, "a", conf(0)...)), 1, 32),
		of("a stored NaN confidence", turns(turn(turnSystem|turnConf, 0, "a", conf(math.NaN())...)), 1, 32),
		of("a confidence cut short", turns(turn(turnSystem|turnConf, 0, "a", 1, 2, 3)), 1, 32),
		of("turn text that is not UTF-8", turns(turn(0, 6, "q\xff")), 1, 32),
		of("a ref of another kind", leaf, 2, 32),
		of("a session node for a ref", good, 6, 32),
		of("a missing ref", absent, 2, 32),
		self("per of zero", sess("per0", 2, 0, pair)),
		self("a total that disagrees", sess("total", 4, 32, pair)),
		self("no data", mustPut(t, vs, "sess", []vstore.Hash{pair}, "")),
		self("a session node in JSON", mustPut(t, vs, "sess", []vstore.Hash{pair}, `{"id":"j","num":1,"turns":2,"per":32}`)),
		self("a session node with a trailing byte", mustPut(t, vs, "sess", []vstore.Hash{pair}, goodNode+"\x00")),
		self("a session id length as an overlong uvarint", mustPut(t, vs, "sess", []vstore.Hash{pair}, "\x84\x00"+goodNode[1:])),
		self("a session id that is not UTF-8", mustPut(t, vs, "sess", []vstore.Hash{pair}, "\x01\xff"+goodNode[5:])),
	}
	for _, rt := range refusedTurns {
		sessions = append(sessions, of(rt.name, turns(string(rt.data)), 1, 32))
	}
	// Shard trees: each holds one of the session trees above, or is
	// ill-formed itself.
	shard := func(ids []string, refs ...vstore.Hash) vstore.Hash {
		return mustPut(t, vs, "shard", refs, shardNode(t, 7, ids...))
	}
	other := sess("other", 2, 32, pair)
	goodShard := shardNode(t, 7, "good")
	shards := []forged{
		self("more ids than refs", shard([]string{"good", "other"}, good)),
		self("more refs than ids", shard([]string{"good"}, good, other)),
		self("an id twice", shard([]string{"good", "good"}, good, good)),
		self("an id that is not its session's", shard([]string{"good", "else"}, good, other)),
		self("a shard node in JSON", mustPut(t, vs, "shard", []vstore.Hash{good}, `{"maxNum":9,"shipSeq":7,"ids":["good"]}`)),
		self("a shard node with a trailing byte", mustPut(t, vs, "shard", []vstore.Hash{good}, goodShard+"\x00")),
		self("a shard id count past its bytes", mustPut(t, vs, "shard", []vstore.Hash{good}, goodShard[:2]+"\x7f")),
		self("a ship sequence as an overlong uvarint", mustPut(t, vs, "shard", []vstore.Hash{good}, goodShard[:1]+"\x87\x00"+goodShard[2:])),
	}
	for _, f := range sessions {
		shards = append(shards, forged{"a shard of " + f.name, shard([]string{f.name}, f.node), f.culprit})
	}

	names := func(err error, culprit vstore.Hash) bool {
		return err != nil && strings.Contains(err.Error(), string(culprit))
	}
	for i, f := range sessions {
		if _, err := decodeSessionTree(vs, f.node); !names(err, f.culprit) {
			t.Errorf("%s: decodeSessionTree = %v, want an error naming %s", f.name, err, f.culprit)
		}
		id := fmt.Sprintf("forged-%d", i)
		if _, err := vs.NewBatch(nil).Commit(SessionRoot(id), f.node, 2); err != nil {
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
		c, err := vs.NewBatch(nil).Commit("shard/forged", f.node, 7)
		if err != nil {
			t.Fatal(err)
		}
		// The materializer refuses an incomplete closure as a replication
		// gap naming the root (the driver negotiates before it applies);
		// everything else as the decoder.
		if _, err := replica.materializeShardSnapshot(c.Hash, 7); !names(err, f.culprit) && !(f.culprit == absent && errors.Is(err, ErrReplicaGap) && names(err, c.Hash)) {
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
	for _, fixture := range []string{formatFixtureV7, treeFixtureV7} {
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
				for _, h := range closureOf(f, vs, c.Hash) {
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
// v7 fixtures, which its refs may name: the decoders answer with a
// transcript or an error, never a panic, and whatever decodes, encoded
// again from nothing, is a tree that decodes to the same transcript. A
// turns chunk is also read through a session node made for it. Seeded
// with every chunk of the v7 fixtures, whole and cut one byte short, and
// with every payload of v5's journals: JSON chunks the store refuses,
// and binary ones whose JSON data the decoders refuse; and with a turns
// chunk of each of refusedTurns.
func FuzzDecodeSessionTree(f *testing.F) {
	base, seeds := fuzzFixtureChunks(f)
	for _, p := range seeds {
		f.Add(p.Data)
		f.Add(p.Data[:len(p.Data)-1])
	}
	for _, fixture := range []string{formatFixtureV5, treeFixtureV5} {
		raw, err := os.ReadFile(filepath.Join(fixture, "vstore", "chunks.pack"))
		if err != nil {
			f.Fatal(err)
		}
		payloads, _ := framelog.Scan(raw[0], raw)
		for _, p := range payloads {
			f.Add(p)
		}
	}
	for _, rt := range refusedTurns {
		f.Add(rt.data)
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
		if kind, data, err := vs.Data(h); err == nil && kind == "turns" {
			if turns, err := decodeTurns(data, turnsPerChunk); err == nil {
				nodes = append(nodes, mustPut(t, vs, "sess", []vstore.Hash{h}, sessNode(t, "fuzz", len(turns), turnsPerChunk)))
			}
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
			b := again.NewBatch(nil)
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
func randomTurns(rng *rand.Rand, n int) []dialogue.Turn {
	turns := make([]dialogue.Turn, n)
	for i := range turns {
		text := strings.Repeat("é \"q\" <t> & ", rng.Intn(4)) + fmt.Sprintf("turn %d", rng.Intn(1000))
		if i%2 == 0 {
			turns[i] = dialogue.Turn{Role: dialogue.RoleUser, Text: text, Intent: dialogue.IntentQuery}
		} else {
			turns[i] = dialogue.Turn{Role: dialogue.RoleSystem, Text: text, Confidence: rng.Float64()}
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
				b := vs.NewBatch(nil)
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
				if _, err := b.Commit(SessionRoot(id), tree.sess, n); err != nil {
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
// kills nothing — here on the very turn that folds the window — fails
// the turn and leaves the entry, and its memory of the last version that
// landed, as they were; the turn asked again is complete: it encodes the
// sealed chunk the failed commit never stored, and every as-of read is a
// prefix.
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
	before, transcript := peek(st, e.ID).tree, transcriptOf(t, e)
	probe.failCommit = true
	if err := commitOnce(st, e, "q15", "a15"); !errors.Is(err, errProbeCommit) { // turn 32: refused
		t.Fatalf("the turn whose version is refused = %v, want the injected error", err)
	}
	if tree := peek(st, e.ID).tree; tree != before || tree.turns != 30 || transcriptOf(t, e) != transcript {
		t.Fatalf("after the refused version the entry remembers %+v, want the tree at turn 30 untouched", tree)
	}
	puts := probe.puts
	commitPair(t, st, e, "q15", "a15", 0.5)
	if got := probe.puts - puts; got != 2 {
		t.Errorf("the turn asked again encoded %d chunks, want 2: the sealed window, the session node", got)
	}
	head, err := vs.Head(SessionRoot(e.ID))
	if err != nil {
		t.Fatal(err)
	}
	tree := peek(st, e.ID).tree
	if head.Turn != 32 || !vs.HasClosure(head.Hash) || tree.turns != 32 || tree.sess != head.Tree || len(tree.refs) != 1 {
		t.Fatalf("head %+v (closure whole = %v), remembered %+v; want the whole tree at turn 32: one sealed chunk", head, vs.HasClosure(head.Hash), tree)
	}
	transcript = transcriptOf(t, e)
	for _, turn := range []int{30, 32} {
		sess, c, err := st.TranscriptAsOf(e.ID, turn)
		if err != nil || c.Turn != turn || Transcript(sess) != turnPrefix(transcript, turn) {
			t.Fatalf("as of turn %d = commit at %d, %v; want the %d-turn prefix", turn, c.Turn, err, turn)
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
