package sessionstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/reliable-cda/cda/internal/dialogue"
	"github.com/reliable-cda/cda/internal/framelog"
	"github.com/reliable-cda/cda/internal/vstore"
)

// forgedRoot is a snapshot_root no primary ships, and the chunk the
// apply's error must name.
type forgedRoot struct {
	name          string
	root, culprit vstore.Hash
}

// forgeRoots puts into vs, hash-valid as a peer could ship them, every
// shape of snapshot_root that is no shard commit at seq.
func forgeRoots(t testing.TB, vs *vstore.Store, seq int64) []forgedRoot {
	t.Helper()
	turns := mustPut(t, vs, "turns", nil, turnsData(t, 2))
	sess := mustPut(t, vs, "sess", []vstore.Hash{turns}, sessNode(t, "forged", 2, 32))
	shard := func(shipSeq int64, ids []string, refs ...vstore.Hash) vstore.Hash {
		return mustPut(t, vs, "shard", refs, shardNode(t, shipSeq, ids...))
	}
	twice := shard(seq, []string{"forged", "forged"}, sess, sess)
	elsewhere := shard(seq+1, []string{"forged"}, sess)
	junk := mustPut(t, vs, "turns", nil, "junk")
	closure := shard(seq, []string{"junk"}, mustPut(t, vs, "sess", []vstore.Hash{junk}, sessNode(t, "junk", 2, 32)))
	commit := func(root string, tree vstore.Hash) vstore.Hash {
		c, err := vs.NewBatch(nil).Commit(root, tree, int(seq))
		if err != nil {
			t.Fatal(err)
		}
		return c.Hash
	}
	absent := vstore.Hash(strings.Repeat("0", 64))
	return []forgedRoot{
		{"an unknown hash", absent, absent},
		{"a turns chunk instead of a commit", turns, turns},
		{"a sess chunk instead of a commit", sess, sess},
		{"a commit whose tree is no shard node", commit("forged/sess", sess), sess},
		{"a shard node listing a session twice", commit("forged/twice", twice), twice},
		{"a shard node at another ship sequence", commit("forged/elsewhere", elsewhere), elsewhere},
		{"a junk turns chunk in the closure", commit("forged/junk", closure), junk},
	}
}

// storeState renders what a replica holds: per shard its cursor, shard
// root head and every live session's transcript.
func storeState(t testing.TB, st *Store) string {
	t.Helper()
	var sb strings.Builder
	for i, sh := range st.shards {
		sh.mu.Lock()
		var entries []*Entry
		for _, id := range sh.sessionIDs() {
			entries = append(entries, sh.sessions[id])
		}
		sh.mu.Unlock()
		head, _ := st.Versions().Head(ShardRoot(i))
		fmt.Fprintf(&sb, "shard %d: cursor %d, root at %d %s\n", i, st.ReplicationCursor(i), head.Turn, head.Tree)
		for _, e := range entries {
			var tr string
			if err := e.Do(func(sess *dialogue.Session) error { tr = Transcript(sess); return nil }); err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&sb, "%q:\n%s", e.ID, tr)
		}
	}
	return sb.String()
}

// TestForgedShipBatchIsAnError: a batch whose snapshot_root is anything
// but a shard commit at its snapshot_seq — each chunk hash-valid, as a
// peer could ship it — is a typed error naming the chunk, and leaves the
// replica's sessions, cursor and shard root head as they were.
func TestForgedShipBatchIsAnError(t *testing.T) {
	primary := NewMemory(Config{Shards: 1, SnapshotEvery: 4})
	replica := NewMemory(Config{Shards: 1, SnapshotEvery: 4})
	e, err := primary.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 5; j++ {
		commitPair(t, primary, e, fmt.Sprintf("q%d", j), fmt.Sprintf("a%d", j), 0.5)
	}
	shipAll(t, primary, replica, 0)
	if _, err := replica.Versions().Head(ShardRoot(0)); err != nil {
		t.Fatalf("set-up: the replica has no shard root: %v", err)
	}
	seq := replica.ReplicationCursor(0) + 4
	for _, f := range forgeRoots(t, replica.Versions(), seq) {
		t.Run(f.name, func(t *testing.T) {
			before := storeState(t, replica)
			err := replica.ApplyBatch(ShipBatch{Shard: 0, SnapshotRoot: string(f.root), SnapshotSeq: seq, PrimaryCursor: seq})
			var bad *vstore.MalformedChunkError
			gap := errors.Is(err, ErrReplicaGap) && strings.Contains(fmt.Sprint(err), string(f.culprit))
			if !(errors.As(err, &bad) && bad.Chunk == f.culprit) && !gap {
				t.Errorf("apply = %v, want a MalformedChunkError or a replication gap naming %s", err, f.culprit)
			}
			if after := storeState(t, replica); after != before {
				t.Errorf("a refused batch changed the replica:\nbefore:\n%safter:\n%s", before, after)
			}
		})
	}
	// Frames that are no record at the ship sequence the batch names:
	// one that carries another, and one in the JSON an older primary
	// wrote. Each is refused before anything of its batch lands.
	commitPair(t, primary, e, "q5", "a5", 0.5)
	next, err := primary.PullFrames(0, replica.ReplicationCursor(0), 0)
	if err != nil || len(next.Frames) != 1 {
		t.Fatalf("set-up: pull = %d frames, %v; want the one new turn", len(next.Frames), err)
	}
	rec, err := decodeFrame(next.Frames[0].Data)
	if err != nil {
		t.Fatal(err)
	}
	rec.Ship++
	elsewhere, err := encodeRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	parentForm := framelog.Encode(walMagic, []byte(`{"kind":"turn","id":"s0001","seq":10,"turns":[{"role":"user","text":"q5","intent":"unknown"},{"role":"system","text":"a5","confidence":0.5}]}`))
	type frameRow struct {
		name string
		data []byte
		old  bool // the error is a *vstore.FormatError
	}
	rows := []frameRow{
		{"a frame at another ship sequence", elsewhere, false},
		{"a JSON frame", parentForm, true},
	}
	for _, rt := range refusedTurns {
		rows = append(rows, frameRow{rt.name, refusedRecord(t, next.Frames[0].Seq, rt.data), false})
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			before := storeState(t, replica)
			b := next
			b.Frames = []Frame{{Seq: next.Frames[0].Seq, Data: row.data}}
			err := replica.ApplyBatch(b)
			var old *vstore.FormatError
			if err == nil || errors.As(err, &old) != row.old {
				t.Errorf("apply = %v, want an error, a *vstore.FormatError: %v", err, row.old)
			}
			if after := storeState(t, replica); after != before {
				t.Errorf("a refused batch changed the replica:\nbefore:\n%safter:\n%s", before, after)
			}
		})
	}
	// What an older primary shipped below its horizon: its whole state
	// inline, which nothing here reads, at a snapshot_seq with no root.
	before := storeState(t, replica)
	inline := []byte(`{"shard":0,"snapshot":"e30=","snapshot_seq":12,"primary_cursor":12}`)
	var b ShipBatch
	if err := json.Unmarshal(inline, &b); err != nil {
		t.Fatal(err)
	}
	if err := replica.ApplyBatch(b); err == nil || storeState(t, replica) != before {
		t.Errorf("an inline snapshot batch: apply = %v, replica changed = %v; want an error and no change", err, storeState(t, replica) != before)
	}
}

// fuzzSeq is the snapshot_seq of FuzzApplyBatch's forged seeds.
const fuzzSeq = 99

// openFuzzReplica opens a replica over dir in the fixtures'
// configuration, with the forged roots' chunks in its version store.
func openFuzzReplica(t testing.TB, dir string) (*Store, []forgedRoot) {
	t.Helper()
	st, err := Open(Config{Dir: dir, Shards: 2, SnapshotEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	return st, forgeRoots(t, st.Versions(), fuzzSeq)
}

// kill releases a store's file handles, its own version store's
// included, the way a kill does: no compaction, nothing written.
func kill(t testing.TB, st *Store) {
	t.Helper()
	if err := st.Versions().Close(); err != nil {
		t.Fatal(err)
	}
}

// FuzzApplyBatch applies arbitrary ShipBatch JSON to a replica opened on
// a copy of format-v8. Nothing panics; a refused batch changes no
// transcript, cursor or shard root; and whatever is accepted leaves a
// directory that, abandoned as a kill leaves it, reopens to exactly what
// the replica held. The seeds are the dialogue's frames as format-v7's
// WALs hold them, shipped again at and above the cursors, the frames of
// one more turn on every session as a primary opened on format-v8 ships
// them, its shard root at its horizon, and the forged roots of
// TestForgedShipBatchIsAnError.
func FuzzApplyBatch(f *testing.F) {
	st, forged := openFuzzReplica(f, copyFixture(f, formatFixtureV8))
	add := func(b ShipBatch) {
		data, err := json.Marshal(b)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for shard := 0; shard < 2; shard++ {
		raw, err := os.ReadFile(filepath.Join(formatFixtureV7, fmt.Sprintf("shard-%02d.wal", shard)))
		if err != nil {
			f.Fatal(err)
		}
		payloads, _ := framelog.Scan(walMagic, raw)
		cur := st.ReplicationCursor(shard)
		for _, from := range []int64{1, cur + 1} {
			b := ShipBatch{Shard: shard, PrimaryCursor: from + int64(len(payloads)) - 1}
			for i, p := range payloads {
				b.Frames = append(b.Frames, Frame{Seq: from + int64(i), Data: framelog.Encode(walMagic, p)})
			}
			add(b)
		}
		if head, err := st.Versions().Head(ShardRoot(shard)); err == nil {
			add(ShipBatch{Shard: shard, SnapshotRoot: string(head.Hash), SnapshotSeq: int64(head.Turn), PrimaryCursor: cur})
		}
	}
	for _, fr := range forged {
		add(ShipBatch{Shard: 1, SnapshotRoot: string(fr.root), SnapshotSeq: fuzzSeq, PrimaryCursor: fuzzSeq})
	}
	kill(f, st)
	primary, err := Open(Config{Dir: copyFixture(f, formatFixtureV8), Shards: 2, SnapshotEvery: 8})
	if err != nil {
		f.Fatal(err)
	}
	for id := range scriptTranscripts(formatScript()) {
		e, _ := primary.Get(id)
		commitPair(f, primary, e, "one more turn", "one more answer", 0.5)
	}
	for shard := 0; shard < 2; shard++ {
		b, err := primary.PullFrames(shard, st.ReplicationCursor(shard), 0)
		if err != nil {
			f.Fatal(err)
		}
		add(b)
	}
	kill(f, primary)

	f.Fuzz(func(t *testing.T, data []byte) {
		var b ShipBatch
		if json.Unmarshal(data, &b) != nil {
			return
		}
		dir := copyFixture(t, formatFixtureV8)
		st, _ := openFuzzReplica(t, dir)
		before := storeState(t, st)
		err := st.ApplyBatch(b)
		held := storeState(t, st)
		kill(t, st)
		if err != nil {
			if held != before {
				t.Fatalf("refused batch (%v) changed the replica:\nbefore:\n%safter:\n%s", err, before, held)
			}
			return
		}
		st, err = Open(Config{Dir: dir, Shards: 2, SnapshotEvery: 8})
		if err != nil {
			t.Fatalf("reopen after an accepted batch: %v", err)
		}
		if got := storeState(t, st); got != held {
			t.Fatalf("accepted batch reopened differently:\nheld:\n%sreopened:\n%s", held, got)
		}
		kill(t, st)
	})
}
