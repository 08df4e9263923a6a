package vstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"github.com/reliable-cda/cda/internal/framelog"
)

// journalFaults is the test double for Config.Faults that also rides
// the journal's crash seam: it counts appends and their bytes, and can
// tear the next one at a chosen byte.
type journalFaults struct {
	appends int
	bytes   int64
	tearAt  int // cut offset for the next append; < 0 leaves it whole
}

func (j *journalFaults) Inject(string) error { return nil }

func (j *journalFaults) TornWrite(op string, b []byte) ([]byte, bool) {
	if op != "vstore.journal" {
		panic("journal append under op " + op)
	}
	j.appends++
	if j.tearAt >= 0 && j.tearAt < len(b) {
		return b[:j.tearAt], true
	}
	j.bytes += int64(len(b))
	return b, false
}

// allLogs maps every root to its full commit log.
func allLogs(t *testing.T, s *Store) map[string][]Commit {
	t.Helper()
	out := map[string][]Commit{}
	for _, root := range s.Roots() {
		log, err := s.Log(root)
		if err != nil {
			t.Fatal(err)
		}
		out[root] = log
	}
	return out
}

// requireReopensEqual opens dir a second time, as after a kill, and
// requires the root logs and the chunk count s holds in memory.
func requireReopensEqual(t *testing.T, dir string, s *Store) {
	t.Helper()
	r, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer func() {
		if err := r.Close(); err != nil {
			t.Errorf("close reopened: %v", err)
		}
	}()
	if got, want := allLogs(t, r), allLogs(t, s); !reflect.DeepEqual(got, want) {
		t.Fatalf("root logs after reopen:\n got: %+v\nwant: %+v", got, want)
	}
	if r.NumChunks() != s.NumChunks() {
		t.Fatalf("reopened with %d chunks, store holds %d", r.NumChunks(), s.NumChunks())
	}
}

// requirePacketsRehash reads every indexed chunk back through PacketOf
// — on a dir-backed store one pread at the offset the index recorded —
// and requires the bytes to hash to the address they are indexed under.
func requirePacketsRehash(t testing.TB, s *Store) {
	t.Helper()
	s.mu.RLock()
	hashes := make([]Hash, 0, len(s.chunks))
	for h := range s.chunks {
		hashes = append(hashes, h)
	}
	s.mu.RUnlock()
	for _, h := range hashes {
		p, err := s.PacketOf(h)
		if err != nil {
			t.Fatalf("PacketOf(%s): %v", h, err)
		}
		if got := hashBytes(p.Data); got != h {
			t.Fatalf("chunk indexed as %s reads back as %s", h, got)
		}
	}
}

func TestCommitDatabaseIsOneJournalAppend(t *testing.T) {
	dir := t.TempDir()
	jf := &journalFaults{tearAt: -1}
	s, err := Open(Config{Dir: dir, Faults: jf})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	db := demoDB(2000) // 8 leaves per column
	for turn := 0; turn < 2; turn++ {
		before := jf.appends
		if _, err := s.CommitDatabase("db/main", db, turn); err != nil {
			t.Fatal(err)
		}
		if got := jf.appends - before; got != 1 {
			t.Fatalf("commit %d made %d journal appends, want 1", turn, got)
		}
	}
	info, err := os.Stat(filepath.Join(dir, packName))
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != jf.bytes {
		t.Fatalf("journal is %d bytes, its appends sum to %d", info.Size(), jf.bytes)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
		t.Fatalf("the store's directory holds %v (err %v); the journal is the only file", entries, err)
	}
	requireReopensEqual(t, dir, s)
}

// TestBatchTornAtEveryOffset crashes one batch append at each of its
// bytes: the reopened root is on the old commit with its whole tree —
// the commit record is the batch's last frame, so nothing short of the
// full append moves the head — and the journal accepts new commits. A
// Land that puts a mark before the version is torn the same way.
func TestBatchTornAtEveryOffset(t *testing.T) {
	for name, land := range map[string]func(*Batch, string, Hash, int) (Commit, error){
		"Commit": (*Batch).Commit,
		"Land":   markThenLand,
	} {
		t.Run(name, func(t *testing.T) { testBatchTornAtEveryOffset(t, land) })
	}
}

// markThenLand lands a mark on mark/<root> and then the version of root
// pinning tree at turn, and returns the root's head.
func markThenLand(b *Batch, root string, tree Hash, turn int) (Commit, error) {
	b.Mark("mark/" + root)
	b.Version(root, tree, turn)
	if err := b.Land(); err != nil {
		return Commit{}, err
	}
	return b.s.Head(root)
}

func testBatchTornAtEveryOffset(t *testing.T, land func(*Batch, string, Hash, int) (Commit, error)) {
	base := t.TempDir()
	s, err := Open(Config{Dir: base})
	if err != nil {
		t.Fatal(err)
	}
	commit := func(s *Store, v int) (Commit, error) {
		b := s.NewBatch(nil)
		leaf, err := b.Put("leaf", nil, []byte(fmt.Sprintf(`[%d]`, v)))
		if err != nil {
			return Commit{}, err
		}
		tree, err := b.Put("db", []Hash{leaf}, []byte(fmt.Sprintf(`{"v":%d}`, v)))
		if err != nil {
			return Commit{}, err
		}
		return land(b, "db/main", tree, v)
	}
	old, err := commit(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	journal, err := os.ReadFile(filepath.Join(base, packName))
	if err != nil {
		t.Fatal(err)
	}

	for cut := 0; ; cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, packName), journal, 0o644); err != nil {
			t.Fatal(err)
		}
		jf := &journalFaults{tearAt: cut}
		s, err := Open(Config{Dir: dir, Faults: jf})
		if err != nil {
			t.Fatal(err)
		}
		next, err := commit(s, 2)
		whole := err == nil
		if !whole && !errors.Is(err, framelog.ErrCrashed) {
			t.Fatalf("cut %d: commit err = %v, want ErrCrashed", cut, err)
		}
		if !whole {
			// Memory is what it was: the append was never acknowledged.
			if head, herr := s.Head("db/main"); herr != nil || head != old {
				t.Fatalf("cut %d: in-memory head after the crash = %+v, %v; want the old commit", cut, head, herr)
			}
			if s.NumChunks() != 3 {
				t.Fatalf("cut %d: in-memory index has %d chunks after the crash, want 3", cut, s.NumChunks())
			}
			if s.stamp != old.Stamp {
				t.Fatalf("cut %d: stamp after the crash = %d, want %d", cut, s.stamp, old.Stamp)
			}
		}
		_ = s.Close()

		r, err := Open(Config{Dir: dir})
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		want := old
		if whole {
			want = next
		}
		head, err := r.Head("db/main")
		if err != nil || head != want {
			t.Fatalf("cut %d: head after reopen = %+v, %v; want %+v", cut, head, err, want)
		}
		if !r.HasClosure(head.Hash) {
			t.Fatalf("cut %d: head's closure is incomplete", cut)
		}
		if _, err := commit(r, 3); err != nil {
			t.Fatalf("cut %d: commit after recovery: %v", cut, err)
		}
		requireReopensEqual(t, dir, r)
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		if whole {
			break // cut reached the batch's length: every offset is covered
		}
	}
}

// TestRootRecordWithoutItsCommitEndsTheJournal: an append record whose
// commit chunk, or a commit record whose stored tree, no frame before it
// holds ends the journal's valid prefix there.
func TestRootRecordWithoutItsCommitEndsTheJournal(t *testing.T) {
	root := "db/main"
	leaf, err := appendChunk("leaf", nil, []byte(`[1]`))
	if err != nil {
		t.Fatal(err)
	}
	late, err := appendChunk("leaf", nil, []byte(`[2]`))
	if err != nil {
		t.Fatal(err)
	}
	danglingAppend, err := appendPayload(root, hashBytes([]byte("beef")))
	if err != nil {
		t.Fatal(err)
	}
	danglingCommit, err := commitPayload(root, 1, hashBytes([]byte("beef")), nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, dangling := range map[string][]byte{"append record": danglingAppend, "commit record": danglingCommit} {
		dir := t.TempDir()
		var journal []byte
		for _, p := range [][]byte{leaf, dangling, late} {
			journal = append(journal, framelog.Encode(packMagic, p)...)
		}
		path := filepath.Join(dir, packName)
		if err := os.WriteFile(path, journal, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if len(s.Roots()) != 0 || s.NumChunks() != 1 || !s.Has(hashBytes(leaf)) {
			t.Fatalf("%s: roots %v, %d chunks; want no root and only the chunk before the dangling record", name, s.Roots(), s.NumChunks())
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if want := int64(framelog.HeaderSize + len(leaf)); info.Size() != want {
			t.Fatalf("%s: journal is %d bytes after open, want it cut to %d", name, info.Size(), want)
		}
	}
}

func TestAddPacketRejectsRootRecord(t *testing.T) {
	root := "session/s0001"
	// A set record that empties root: 0x03 · name · stamp 0 · no commits.
	data := append([]byte{tagSet, byte(len(root))}, root+"\x00\x00"...)
	s := NewMemory()
	if err := s.AddPackets([]Packet{{Hash: hashBytes(data), Data: data}}); !errors.Is(err, ErrBadPacket) {
		t.Fatalf("root record shipped as a chunk: err = %v, want ErrBadPacket", err)
	}
}

// forgedPayloads are chunk payloads no writer of this store produces,
// each hashing to its address: the JSON shapes older stores wrote or
// accepted from a peer, the set record only retention wrote, a root
// record, and every way out of the binary layout.
func forgedPayloads(t testing.TB) []struct {
	name    string
	payload []byte
} {
	addr := hashBytes([]byte("a"))
	raw := func(parts ...any) []byte {
		var p []byte
		for _, part := range parts {
			switch v := part.(type) {
			case int:
				p = append(p, byte(v))
			case string:
				p = append(p, v...)
			case []byte:
				p = append(p, v...)
			case Hash:
				var err error
				if p, err = appendAddr(p, v); err != nil {
					t.Fatal(err)
				}
			}
		}
		return p
	}
	rootRec, err := appendPayload("session/s0001", addr)
	if err != nil {
		t.Fatal(err)
	}
	node := func(kind string, refs []Hash, data string) []byte {
		p, err := appendChunk(kind, refs, []byte(data))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	sess := node("sess", []Hash{addr}, "\x02s1")
	inline, err := commitPayload("session/s0001", 2, hashBytes(sess), sess)
	if err != nil {
		t.Fatal(err)
	}
	stored, err := commitPayload("session/s0001", 2, addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name    string
		payload []byte
	}{
		{"JSON null", []byte(`null`)},
		{"JSON chunk with no kind", []byte(`{}`)},
		{"JSON refs that are not addresses", []byte(`{"k":"x","r":["zz"]}`)},
		{"JSON ref in uppercase hex", []byte(`{"k":"x","r":["` + strings.ToUpper(string(addr)) + `"]}`)},
		{"JSON chunk with address refs", []byte(`{"k":"x","r":["` + string(addr) + `"],"d":{}}`)},
		{"JSON append record", []byte(`{"root":"","commit":"` + string(addr) + `"}`)},
		{"JSON root record with a kind", []byte(`{"root":"r","k":"x","log":["` + string(addr) + `"]}`)},
		{"JSON log record", []byte(`{"root":"r","log":["` + string(addr) + `"],"stamp":1}`)},
		{"JSON leaf", []byte(`{"k":"leaf","d":{"t":1,"v":[1]}}`)},
		{"not JSON", []byte(`{`)},
		{"empty", nil},
		{"unknown first byte", raw(0x05, 1, "x", 1, addr)},
		{"binary chunk with an empty kind", raw(tagChunk, 0, 1, addr)},
		{"binary kind whose bytes are not there", raw(tagChunk, 9, "x")},
		{"binary ref whose bytes are not there", raw(tagChunk, 1, "x", 2, addr)},
		{"binary ref count of 2^63", raw(tagChunk, 1, "x", binary.AppendUvarint(nil, 1<<63), addr)},
		{"binary uvarint that overflows", raw(tagChunk, strings.Repeat("\xff", 10), 1)},
		{"binary overlong kind length", raw(tagChunk, 0x81, 0, "x", 1, addr)},
		{"binary overlong ref count", raw(tagChunk, 1, "x", 0x81, 0, addr)},
		{"commit data flagged 2", raw(tagChunk, 6, "commit", 1, addr, 2, 1, 1)},
		{"commit data with a trailing byte", raw(tagChunk, 6, "commit", 1, addr, 0, 1, 1, 0)},
		{"commit data short of its parent", raw(tagChunk, 6, "commit", 1, addr, 1, 1, 1)},
		{"commit data with an overlong turn", raw(tagChunk, 6, "commit", 1, addr, 0, 0x81, 0, 1)},
		{"commit data with no stamp", raw(tagChunk, 6, "commit", 1, addr, 0, 1)},
		{"commit data in JSON", raw(tagChunk, 6, "commit", 1, addr, `{"turn":1,"stamp":1}`)},
		{"commit with no refs", raw(tagChunk, 6, "commit", 0, 0, 1, 1)},
		{"leaf data that is not JSON", raw(tagChunk, 4, "leaf", 0, `{`)},
		{"leaf data in two forms", raw(tagChunk, 4, "leaf", 0, `{"t":1,"v":[1],"dr":[1,1]}`)},
		{"leaf with refs", raw(tagChunk, 4, "leaf", 1, addr, `{"t":1,"v":[1]}`)},
		{"table data that is not JSON", raw(tagChunk, 5, "table", 1, addr, `{`)},
		{"db data that is not JSON", raw(tagChunk, 2, "db", 0, `[`)},
		{"binary root record", rootRec},
		{"binary root record with trailing bytes", append(bytes.Clone(rootRec), 0)},
		{"binary root record short of its commit", rootRec[:len(rootRec)-1]},
		{"binary root name whose bytes are not there", raw(tagAppend, 40, "session/")},
		{"set record, which only retention wrote", retentionSetRecord(t)},
		{"commit record carrying its node", inline},
		{"commit record naming its tree", stored},
		{"commit record with a byte after its tree's address", append(bytes.Clone(stored), 0)},
		{"commit record short of its tree's address", stored[:len(stored)-1]},
		{"commit record ending before its tree", raw(tagCommit, 1, "r", 2)},
		{"commit record with an overlong turn", raw(tagCommit, 1, "r", 0x82, 0, treeStored, addr)},
		{"commit record with an overlong name length", raw(tagCommit, 0x81, 0, "r", 2, treeStored, addr)},
		{"commit record whose turn overflows an int", raw(tagCommit, 1, "r", binary.AppendUvarint(nil, 1<<63), treeStored, addr)},
		{"commit record in tree form 2", raw(tagCommit, 1, "r", 2, 2, addr)},
		{"commit record carrying a leaf", raw(tagCommit, 1, "r", 2, node("leaf", nil, `{"t":1,"v":[1]}`))},
		{"commit record carrying a commit", raw(tagCommit, 1, "r", 2, node("commit", []Hash{addr}, "\x00\x01\x01"))},
		{"commit record carrying db data its decoder refuses", raw(tagCommit, 1, "r", 2, node("db", nil, `[`))},
		{"commit record carrying a node with an empty kind", raw(tagCommit, 1, "r", 2, tagChunk, 0, 0)},
		{"commit record carrying a node short of its ref", raw(tagCommit, 1, "r", 2, tagChunk, 4, "sess", 1, addr)[:40]},
	}
}

// TestAddPacketsRefusesForgedPayloads: every forged payload, shipped
// alone or amid good packets, is ErrBadPacket; nothing of its batch is
// journalled or indexed, and a refusal allocates at most 4 KB whatever
// count the payload claims. The well-formed binary chunk beside them is
// installed.
func TestAddPacketsRefusesForgedPayloads(t *testing.T) {
	jf := &journalFaults{tearAt: -1}
	s, err := Open(Config{Dir: t.TempDir(), Faults: jf})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	leaf, err := appendChunk("leaf", nil, []byte(`{"t":1,"v":[1]}`))
	if err != nil {
		t.Fatal(err)
	}
	table, err := appendChunk("table", []Hash{hashBytes(leaf)}, []byte(`{"rows":1}`))
	if err != nil {
		t.Fatal(err)
	}
	good := []Packet{{Hash: hashBytes(leaf), Data: leaf}, {Hash: hashBytes(table), Data: table}}
	for _, f := range forgedPayloads(t) {
		bad := Packet{Hash: hashBytes(f.payload), Data: f.payload}
		for _, batch := range [][]Packet{{bad}, {good[0], bad, good[1]}} {
			if err := s.AddPackets(batch); !errors.Is(err, ErrBadPacket) {
				t.Errorf("%s: AddPackets = %v, want ErrBadPacket", f.name, err)
			}
			if jf.appends != 0 || s.NumChunks() != 0 {
				t.Fatalf("%s: a refused batch made %d appends and indexed %d chunks", f.name, jf.appends, s.NumChunks())
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 100; i++ {
			if s.AddPackets([]Packet{bad}) == nil {
				t.Fatalf("%s: installed", f.name)
			}
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / 100; per > 4<<10 {
			t.Errorf("%s: a refusal allocated %d bytes", f.name, per)
		}
	}
	if err := s.AddPackets(good); err != nil || jf.appends != 1 || s.NumChunks() != 2 {
		t.Fatalf("the good batch: %v, %d appends, %d chunks", err, jf.appends, s.NumChunks())
	}
	if refs, err := s.Refs(good[1].Hash); err != nil || !reflect.DeepEqual(refs, []Hash{good[0].Hash}) {
		t.Fatalf("the binary table's refs = %v, %v", refs, err)
	}
}

// TestAddPacketsIsOneJournalAppend: a negotiated batch is verified
// whole, then journalled with one append and one fsync however many
// chunks it carries, and a bad packet anywhere in it installs nothing.
func TestAddPacketsIsOneJournalAppend(t *testing.T) {
	src := NewMemory()
	c, err := src.CommitDatabase("db/main", demoDB(8000), 0) // 32 leaves per column
	if err != nil {
		t.Fatal(err)
	}
	rest := src.NumChunks() - 3 - 50 // the version's closure past commit, db, table and one full batch of leaves
	dir := t.TempDir()
	jf := &journalFaults{tearAt: -1}
	dst, err := Open(Config{Dir: dir, Faults: jf})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := dst.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	// Walk down to the leaves one level per round: commit, db, table.
	for level := 0; level < 3; level++ {
		if _, err := pullRound(src, dst, c.Hash, 50); err != nil {
			t.Fatal(err)
		}
	}
	want := dst.WantList(c.Hash, 50)
	if len(want) != 50 {
		t.Fatalf("frontier has %d chunks, want a full batch of 50", len(want))
	}
	packets, err := src.Packets(want)
	if err != nil {
		t.Fatal(err)
	}

	// Forged, undecodable and root-record packets, first, last or in the
	// middle: nothing of the batch is journalled or indexed.
	root := "db/main"
	rootRec, err := appendPayload(root, c.Hash)
	if err != nil {
		t.Fatal(err)
	}
	appends, chunks := jf.appends, dst.NumChunks()
	for name, bad := range map[string]Packet{
		"forged":      {Hash: packets[7].Hash, Data: append(bytes.Clone(packets[7].Data), ' ')},
		"not JSON":    {Hash: hashBytes([]byte("{")), Data: []byte("{")},
		"root record": {Hash: hashBytes(rootRec), Data: rootRec},
	} {
		for _, at := range []int{0, 25, len(packets)} {
			batch := append(append(append([]Packet(nil), packets[:at]...), bad), packets[at:]...)
			if err := dst.AddPackets(batch); err == nil {
				t.Fatalf("%s packet at %d: batch accepted", name, at)
			}
			if jf.appends != appends || dst.NumChunks() != chunks {
				t.Fatalf("%s packet at %d: %d appends and %d chunks installed by a refused batch",
					name, at, jf.appends-appends, dst.NumChunks()-chunks)
			}
		}
	}

	// The good batch — with one packet repeated — is one append.
	if err := dst.AddPackets(append(packets, packets[3])); err != nil {
		t.Fatal(err)
	}
	if got := jf.appends - appends; got != 1 {
		t.Fatalf("a 50-chunk batch made %d journal appends, want 1", got)
	}
	if got := dst.NumChunks() - chunks; got != 50 {
		t.Fatalf("batch installed %d chunks, want 50", got)
	}
	// Re-shipping what the store holds appends nothing.
	if err := dst.AddPackets(packets); err != nil || jf.appends != appends+1 {
		t.Fatalf("re-shipped batch: err %v, %d further appends", err, jf.appends-appends-1)
	}
	moved, err := pullFrom(src, dst, c.Hash, 50)
	if err != nil || moved != rest || rest < 1 || rest > 50 || jf.appends != appends+2 {
		t.Fatalf("pulling the rest: moved %d (want %d), %d appends (want 1), err %v", moved, rest, jf.appends-appends-1, err)
	}
	if !dst.HasClosure(c.Hash) {
		t.Fatal("closure incomplete after the pull")
	}
	info, err := os.Stat(filepath.Join(dir, packName))
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != jf.bytes {
		t.Fatalf("journal is %d bytes, its appends sum to %d", info.Size(), jf.bytes)
	}
	requirePacketsRehash(t, dst)
	requireReopensEqual(t, dir, dst)
}

// pullRound is one round of the have/want loop the cluster router
// drives: dst wants, src answers, dst installs.
func pullRound(src, dst *Store, target Hash, batch int) (int, error) {
	packets, err := src.Packets(dst.WantList(target, batch))
	if err != nil {
		return 0, err
	}
	return len(packets), dst.AddPackets(packets)
}

// pullFrom runs pullRound until dst holds target's closure and returns
// how many chunks moved.
func pullFrom(src, dst *Store, target Hash, batch int) (int, error) {
	moved := 0
	for !dst.HasClosure(target) {
		n, err := pullRound(src, dst, target, batch)
		if err != nil {
			return moved, err
		}
		moved += n
	}
	return moved, nil
}

// journalSeeds are hand-made journals around the decoder's edges.
func journalSeeds(t testing.TB) [][]byte {
	root := "r"
	must := func(b []byte, err error) []byte {
		if err != nil {
			t.Fatal(err)
		}
		return framelog.Encode(packMagic, b)
	}
	tree := must(appendChunk("db", nil, []byte(`{"v":1}`)))
	commitData, err := appendCommitData("", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	commitChunkPayload, err := appendChunk("commit", []Hash{hashBytes(tree[framelog.HeaderSize:])}, commitData)
	if err != nil {
		t.Fatal(err)
	}
	commit := framelog.Encode(packMagic, commitChunkPayload)
	h := hashBytes(commitChunkPayload)
	appendRec := must(appendPayload(root, h))
	// Set records, which only retention wrote, by hand: 0x03 · name ·
	// stamp 9 · log.
	setRecord := func(log ...Hash) []byte {
		return must(appendAddrs(append([]byte{tagSet, byte(len(root))}, root+"\x09"...), log))
	}
	setRec, deleteRec := setRecord(h, h), setRecord()
	notCommit := must(appendPayload(root, hashBytes(tree[framelog.HeaderSize:])))
	sess, err := appendChunk("sess", nil, []byte{2})
	if err != nil {
		t.Fatal(err)
	}
	inline := must(commitPayload(root, 2, hashBytes(sess), sess))
	stored := must(commitPayload(root, 4, hashBytes(sess), nil))
	storedTree := must(commitPayload(root, 3, hashBytes(tree[framelog.HeaderSize:]), nil))
	// The commit inline's record stands for, appended to a second root.
	recordCommit, err := appendCommitData("", 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	recordCommitPayload, err := appendChunk("commit", []Hash{hashBytes(sess)}, recordCommit)
	if err != nil {
		t.Fatal(err)
	}
	adopt := must(appendPayload("other", hashBytes(recordCommitPayload)))
	cat := func(frames ...[]byte) []byte { return bytes.Join(frames, nil) }
	return [][]byte{
		nil,
		cat(tree, commit, appendRec),
		cat(tree, commit, appendRec, setRec),
		cat(tree, commit, appendRec, deleteRec),
		cat(tree, appendRec, commit),
		cat(tree, commit, notCommit),
		cat(tree, commit, appendRec)[:len(tree)+len(commit)+len(appendRec)-3],
		framelog.Encode(packMagic, []byte(`{"root":7}`)),
		framelog.Encode(packMagic, []byte(`[]`)),
		framelog.Encode(0xA7, []byte(`{"k":"leaf"}`)),
		append(cat(tree), packMagic, 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0),
		append(cat(tree, commit), "garbage!!!"...),
		cat(inline, stored, adopt),
		cat(tree, storedTree, inline, setRec),
		cat(stored, inline),
		cat(tree, commit, appendRec, storedTree, inline, deleteRec, inline),
		cat(inline, stored)[:len(inline)+5],
	}
}

// FuzzJournalOpen feeds arbitrary bytes to Open as chunks.pack: it
// never panics; a refusal for an older format keeps every frame whose
// checksum verifies, byte for byte — only a torn tail after the last of
// them, which any reader cuts, may go — so a journal that ends on a
// frame is left as it was; and whatever it accepts, cutting the journal,
// re-opens to the same root logs, with every indexed chunk at the offset
// the index holds for it, before and after a further commit.
func FuzzJournalOpen(f *testing.F) {
	for _, seed := range journalSeeds(f) {
		f.Add(seed)
	}
	// Journals this code wrote, the v6 ones it reads, and retention-v7,
	// whose set records are an older format: whole, cut — retention-v7's
	// half holds none of them — and behind a JSON chunk with refs, which
	// only older stores wrote; and the v5 journals, whose JSON payloads are
	// an older format.
	old := framelog.Encode(packMagic, []byte(`{"k":"sess","r":["`+string(hashBytes(nil))+`"]}`))
	for _, path := range slices.Concat(fixtureJournals, v6Journals, []string{retentionJournal}) {
		pack, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(pack)
		f.Add(pack[:len(pack)/2])
		f.Add(append(bytes.Clone(old), pack...))
	}
	for _, path := range v5Journals {
		pack, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(pack)
	}
	for _, forged := range forgedPayloads(f) {
		f.Add(framelog.Encode(packMagic, forged.payload))
	}

	f.Fuzz(func(t *testing.T, pack []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, packName)
		if err := os.WriteFile(path, pack, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(Config{Dir: dir})
		var older *FormatError
		if errors.As(err, &older) {
			_, valid := framelog.Scan(packMagic, pack)
			if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, pack[:valid]) {
				t.Fatalf("refused (%v), the journal is %d bytes (err %v); it was %d, %d of them whole frames", older, len(got), err, len(pack), valid)
			}
			return
		}
		if err != nil {
			return
		}
		defer func() { _ = s.Close() }()
		for root, log := range allLogs(t, s) {
			for _, c := range log {
				if !s.Has(c.Hash) {
					t.Fatalf("root %q lists commit %s whose chunk is absent", root, c.Hash)
				}
			}
		}
		requireReopensEqual(t, dir, s)

		// Every chunk the scan indexed lies where the index says, and
		// appends after the point the journal was cut at land where
		// theirs says too — in this process and in the next.
		requirePacketsRehash(t, s)
		b := s.NewBatch(nil)
		tree, err := b.Put("db", nil, []byte(`{"fuzz":true}`))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.Commit("fuzz/extra", tree, 1); err != nil {
			t.Fatalf("commit on an accepted journal: %v", err)
		}
		requirePacketsRehash(t, s)
		r, err := Open(Config{Dir: dir})
		if err != nil {
			t.Fatalf("reopen after a commit: %v", err)
		}
		defer func() { _ = r.Close() }()
		if r.NumChunks() != s.NumChunks() {
			t.Fatalf("reopened with %d chunks, store holds %d", r.NumChunks(), s.NumChunks())
		}
		requirePacketsRehash(t, r)
	})
}
