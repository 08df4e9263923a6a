package sessionstore

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
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
// root head and every live session's transcript, and the size of its
// journal.
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
	_, size := st.Versions().JournalSynced()
	fmt.Fprintf(&sb, "journal: %d bytes\n", size)
	return sb.String()
}

// TestForgedShipBatchIsAnError: a batch whose snapshot_root is anything
// but a shard commit at its snapshot_seq — each chunk hash-valid, as a
// peer could ship it — is a typed error naming the chunk, and so is a
// batch with a record no primary ships. Each leaves the replica's
// sessions, cursor, shard root head and journal as they were.
func TestForgedShipBatchIsAnError(t *testing.T) {
	primary := NewMemory(Config{Shards: 1, SnapshotEvery: 4})
	replica, err := Open(Config{Dir: t.TempDir(), Shards: 1, SnapshotEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer kill(t, replica)
	var entries []*Entry
	for i := 0; i < 2; i++ {
		e, err := primary.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, e)
	}
	for j := 0; j < 5; j++ {
		for _, e := range entries {
			commitPair(t, primary, e, fmt.Sprintf("q%d", j), fmt.Sprintf("a%d", j), 0.5)
		}
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
	// Records no primary ships: a turn and a create whose pair, focus, id
	// or num was changed, so that the version the replica builds pins
	// another session node than the record names; an evict with more than
	// an id, or of no live session; a turn whose pair is no turns chunk;
	// and the record frames an older primary ships. Each is refused before
	// anything of its batch lands.
	commitPair(t, primary, entries[0], "q5", "a5", 0.5)
	if _, err := primary.NewSession(); err != nil {
		t.Fatal(err)
	}
	next, err := primary.PullRecords(0, replica.ReplicationCursor(0), 0)
	if err != nil || len(next.Records) != 2 || next.Records[0].Kind != "turn" || next.Records[1].Kind != "create" {
		t.Fatalf("set-up: pull = %+v, %v; want the new turn and the new session", next.Records, err)
	}
	const node = "names session node"
	type recordRow struct {
		name  string
		edit  func(b *ShipBatch)
		want  string // what the error says
		older bool   // the error is a *vstore.FormatError
	}
	turn := func(edit func(sr *ShipRecord)) func(b *ShipBatch) {
		return func(b *ShipBatch) { edit(&b.Records[0]) }
	}
	rows := []recordRow{
		{"a turn whose pair was altered", turn(func(sr *ShipRecord) { *sr = altered(t, *sr) }), node, false},
		{"a turn whose focus was altered", turn(func(sr *ShipRecord) { sr.Focus = "elsewhere" }), node, false},
		{"a turn whose id was altered", turn(func(sr *ShipRecord) { sr.ID = entries[1].ID }), node, false},
		{"a create whose num was altered", func(b *ShipBatch) { b.Records[1] = altered(t, b.Records[1]) }, node, false},
		{"a turn that names another node", turn(func(sr *ShipRecord) { sr.Node = next.Records[1].Node }), node, false},
		{"an evict that names a node", turn(func(sr *ShipRecord) { sr.Kind, sr.Pair, sr.Focus, sr.Turn = "evict", nil, "", 0 }), "carries what no evict record does", false},
		{"an evict of a session the shard does not hold", turn(func(sr *ShipRecord) { *sr = ShipRecord{Seq: sr.Seq, Kind: "evict", ID: "s0404"} }), "does not hold live", false},
		{"a JSON frame", func(b *ShipBatch) {
			b.Records, b.OldFrames = nil, json.RawMessage(`[{"seq":12,"data":"xQ=="}]`)
		}, framesLastReader, true},
	}
	for _, rt := range refusedTurns {
		rows = append(rows, recordRow{rt.name, turn(func(sr *ShipRecord) { sr.Pair = rt.data }), "its pair", false})
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			before := storeState(t, replica)
			b := next
			b.Records = slices.Clone(next.Records)
			row.edit(&b)
			err := replica.ApplyBatch(b)
			var old *vstore.FormatError
			if err == nil || !strings.Contains(err.Error(), row.want) || errors.As(err, &old) != row.older {
				t.Errorf("apply = %v, want an error saying %q, a *vstore.FormatError: %v", err, row.want, row.older)
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
	// The batch the records came from still applies.
	if err := replica.ApplyBatch(next); err != nil {
		t.Fatal(err)
	}
	assertMirrors(t, primary, replica, []string{entries[0].ID, entries[1].ID})
}

// shipFramesFixture holds the batches a 4bc3512 primary, opened on a copy
// of format-v9 with one more turn on every session, shipped for each
// shard from the cursor format-v9 reopens at: the JSON of record frames
// that commit wrote, which a current node refuses.
const shipFramesFixture = "testdata/ship-frames.json"

// parentBatches reads shipFramesFixture.
func parentBatches(t testing.TB) []ShipBatch {
	t.Helper()
	raw, err := os.ReadFile(shipFramesFixture)
	if err != nil {
		t.Fatal(err)
	}
	var batches []ShipBatch
	if err := json.Unmarshal(raw, &batches); err != nil {
		t.Fatal(err)
	}
	return batches
}

// TestParentFrameBatchIsRefused: a batch that a 4bc3512 primary shipped
// to a replica holding what it held — records this replica would take,
// were they records — is a *vstore.FormatError naming 4bc3512, and the
// replica's state and journal stay as they were, byte for byte.
func TestParentFrameBatchIsRefused(t *testing.T) {
	dir := copyFixture(t, formatFixtureV9)
	st, err := Open(Config{Dir: dir, Shards: 2, SnapshotEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer kill(t, st)
	journal := filepath.Join(dir, "vstore", "chunks.pack")
	raw, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	batches := parentBatches(t)
	if len(batches) != 2 {
		t.Fatalf("%s holds %d batches, want one a shard", shipFramesFixture, len(batches))
	}
	for _, b := range batches {
		if first := b.PrimaryCursor - 1; len(b.OldFrames) == 0 || st.ReplicationCursor(b.Shard) > first {
			t.Fatalf("set-up: shard %d batch at primary cursor %d holds no frames, or the replica is at %d", b.Shard, b.PrimaryCursor, st.ReplicationCursor(b.Shard))
		}
		before := storeState(t, st)
		err := st.ApplyBatch(b)
		var old *vstore.FormatError
		if !errors.As(err, &old) || !strings.Contains(err.Error(), "4bc3512") {
			t.Errorf("shard %d: apply = %v, want a *vstore.FormatError naming 4bc3512", b.Shard, err)
		}
		if after := storeState(t, st); after != before {
			t.Errorf("shard %d: a refused batch changed the replica:\nbefore:\n%safter:\n%s", b.Shard, before, after)
		}
	}
	if now, err := os.ReadFile(journal); err != nil || !bytes.Equal(now, raw) {
		t.Errorf("the replica's journal changed: %d bytes, was %d (%v)", len(now), len(raw), err)
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
// transcript, cursor, shard root or journal byte; and whatever is
// accepted leaves a directory that, abandoned as a kill leaves it,
// reopens to exactly what the replica held. The seeds are what primaries
// opened on format-v8 and format-v9 ship — with one more turn on every
// session, from the replica's cursor and from 0 — the replica's shard
// roots at their horizons, the forged roots of
// TestForgedShipBatchIsAnError, and, as batches in the shape 4bc3512 and
// older ship, which must be refused, the dialogue's frames as format-v7's
// WALs hold them, at and above the cursors, and shipFramesFixture.
func FuzzApplyBatch(f *testing.F) {
	st, forged := openFuzzReplica(f, copyFixture(f, formatFixtureV8))
	add := func(b ShipBatch) {
		data, err := json.Marshal(b)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	refused := func(b ShipBatch) {
		var old *vstore.FormatError
		if err := st.ApplyBatch(b); !errors.As(err, &old) {
			f.Fatalf("a batch of frames for shard %d: apply = %v, want a *vstore.FormatError", b.Shard, err)
		}
		add(b)
	}
	type frame struct {
		Seq  int64  `json:"seq"`
		Data []byte `json:"data"`
	}
	for shard := 0; shard < 2; shard++ {
		raw, err := os.ReadFile(filepath.Join(formatFixtureV7, fmt.Sprintf("shard-%02d.wal", shard)))
		if err != nil {
			f.Fatal(err)
		}
		payloads, _ := framelog.Scan(shardWALMagic, raw)
		cur := st.ReplicationCursor(shard)
		for _, from := range []int64{1, cur + 1} {
			var frames []frame
			for i, p := range payloads {
				frames = append(frames, frame{Seq: from + int64(i), Data: framelog.Encode(shardWALMagic, p)})
			}
			old, err := json.Marshal(frames)
			if err != nil {
				f.Fatal(err)
			}
			refused(ShipBatch{Shard: shard, PrimaryCursor: from + int64(len(payloads)) - 1, OldFrames: old})
		}
		if head, err := st.Versions().Head(ShardRoot(shard)); err == nil {
			add(ShipBatch{Shard: shard, SnapshotRoot: string(head.Hash), SnapshotSeq: int64(head.Turn), PrimaryCursor: cur})
		}
	}
	for _, b := range parentBatches(f) {
		refused(b)
	}
	for _, fr := range forged {
		add(ShipBatch{Shard: 1, SnapshotRoot: string(fr.root), SnapshotSeq: fuzzSeq, PrimaryCursor: fuzzSeq})
	}
	kill(f, st)
	for _, fixture := range []string{formatFixtureV8, formatFixtureV9} {
		primary, err := Open(Config{Dir: copyFixture(f, fixture), Shards: 2, SnapshotEvery: 8})
		if err != nil {
			f.Fatal(err)
		}
		for id := range scriptTranscripts(formatScript()) {
			e, _ := primary.Get(id)
			commitPair(f, primary, e, "one more turn", "one more answer", 0.5)
		}
		for shard := 0; shard < 2; shard++ {
			for _, after := range []int64{st.ReplicationCursor(shard), 0} {
				b, err := primary.PullRecords(shard, after, 0)
				if err != nil {
					f.Fatal(err)
				}
				add(b)
			}
		}
		kill(f, primary)
	}

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
