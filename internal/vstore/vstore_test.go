package vstore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"github.com/reliable-cda/cda/internal/framelog"
	"github.com/reliable-cda/cda/internal/storage"
)

func mustPut(t *testing.T, s *Store, kind string, refs []Hash, data string) Hash {
	t.Helper()
	var d []byte
	if data != "" {
		d = []byte(data)
	}
	h, err := s.Put(kind, refs, d)
	if err != nil {
		t.Fatalf("Put(%s): %v", kind, err)
	}
	return h
}

func TestPutDedupsByContent(t *testing.T) {
	s := NewMemory()
	a := mustPut(t, s, "leaf", nil, `[1,2,3]`)
	b := mustPut(t, s, "leaf", nil, `[1,2,3]`)
	if a != b {
		t.Fatalf("identical content got different hashes: %s vs %s", a, b)
	}
	if n := s.NumChunks(); n != 1 {
		t.Fatalf("NumChunks = %d, want 1 (dedup)", n)
	}
	c := mustPut(t, s, "leaf", nil, `[1,2,4]`)
	if c == a {
		t.Fatalf("different content got the same hash")
	}
}

func TestChunkRoundTrip(t *testing.T) {
	s := NewMemory()
	leaf := mustPut(t, s, "leaf", nil, `[1,2]`)
	node := mustPut(t, s, "table", []Hash{leaf}, `{"rows":2}`)
	kind, err := s.Kind(node)
	if err != nil || kind != "table" {
		t.Fatalf("Kind = %q, %v; want table", kind, err)
	}
	refs, err := s.Refs(node)
	if err != nil || len(refs) != 1 || refs[0] != leaf {
		t.Fatalf("Refs = %v, %v; want [%s]", refs, err, leaf)
	}
	var data struct {
		Rows int `json:"rows"`
	}
	if _, err := s.Data(node, &data); err != nil || data.Rows != 2 {
		t.Fatalf("Data = %+v, %v", data, err)
	}
	if _, err := s.Kind(Hash("feed")); !errors.Is(err, ErrUnknownChunk) {
		t.Fatalf("Kind(absent) err = %v, want ErrUnknownChunk", err)
	}
}

func TestCommitLogAndAsOf(t *testing.T) {
	s := NewMemory()
	t1 := mustPut(t, s, "db", nil, `{"v":1}`)
	t2 := mustPut(t, s, "db", nil, `{"v":2}`)
	t3 := mustPut(t, s, "db", nil, `{"v":3}`)
	c1, err := s.Commit("db/main", t1, 0)
	if err != nil {
		t.Fatalf("commit 1: %v", err)
	}
	c2, err := s.Commit("db/main", t2, 3)
	if err != nil {
		t.Fatalf("commit 2: %v", err)
	}
	c3, err := s.Commit("db/main", t3, 7)
	if err != nil {
		t.Fatalf("commit 3: %v", err)
	}
	if c1.Parent != "" || c2.Parent != c1.Hash || c3.Parent != c2.Hash {
		t.Fatalf("parent chain broken: %+v %+v %+v", c1, c2, c3)
	}
	if !(c1.Stamp < c2.Stamp && c2.Stamp < c3.Stamp) {
		t.Fatalf("stamps not increasing: %d %d %d", c1.Stamp, c2.Stamp, c3.Stamp)
	}
	head, err := s.Head("db/main")
	if err != nil || head.Hash != c3.Hash {
		t.Fatalf("Head = %+v, %v; want c3", head, err)
	}
	for _, tc := range []struct {
		turn int
		want Hash
	}{{0, c1.Hash}, {2, c1.Hash}, {3, c2.Hash}, {6, c2.Hash}, {7, c3.Hash}, {100, c3.Hash}} {
		got, err := s.AsOf("db/main", tc.turn)
		if err != nil {
			t.Fatalf("AsOf(%d): %v", tc.turn, err)
		}
		if got.Hash != tc.want {
			t.Fatalf("AsOf(%d) = %s, want %s", tc.turn, got.Hash, tc.want)
		}
	}
	if _, err := s.AsOf("db/main", -1); err == nil {
		t.Fatalf("AsOf before first commit should fail")
	}
	if _, err := s.Head("nope"); !errors.Is(err, ErrUnknownRoot) {
		t.Fatalf("Head(absent root) err = %v, want ErrUnknownRoot", err)
	}
	if _, err := s.Commit("db/main", Hash("beef"), 9); !errors.Is(err, ErrUnknownChunk) {
		t.Fatalf("Commit(absent tree) err = %v, want ErrUnknownChunk", err)
	}
}

func TestDurabilityAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	leaf := mustPut(t, s, "leaf", nil, `[42]`)
	tree := mustPut(t, s, "db", []Hash{leaf}, `{"v":1}`)
	c, err := s.Commit("db/main", tree, 5)
	if err != nil {
		t.Fatalf("commit: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	r, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer func() {
		if err := r.Close(); err != nil {
			t.Errorf("close reopened: %v", err)
		}
	}()
	if !r.Has(leaf) || !r.Has(tree) || !r.Has(c.Hash) {
		t.Fatalf("chunks lost across reopen")
	}
	head, err := r.Head("db/main")
	if err != nil || head.Hash != c.Hash || head.Turn != 5 {
		t.Fatalf("Head after reopen = %+v, %v", head, err)
	}
	// Stamps continue where the previous incarnation stopped.
	tree2 := mustPut(t, r, "db", nil, `{"v":2}`)
	c2, err := r.Commit("db/main", tree2, 6)
	if err != nil {
		t.Fatalf("commit after reopen: %v", err)
	}
	if c2.Stamp <= c.Stamp {
		t.Fatalf("stamp regressed across reopen: %d then %d", c.Stamp, c2.Stamp)
	}
}

func TestTornPackTailTruncates(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	good := mustPut(t, s, "leaf", nil, `[1]`)
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// Simulate a crash mid-append: a valid header promising more
	// payload bytes than were written.
	path := filepath.Join(dir, packName)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatalf("open pack: %v", err)
	}
	torn := framelog.Encode(packMagic, []byte(`{"k":"leaf","d":[9,9,9]}`))
	if _, err := f.Write(torn[:len(torn)-3]); err != nil {
		t.Fatalf("write torn frame: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("close pack: %v", err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read pack: %v", err)
	}

	r, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatalf("reopen with torn tail: %v", err)
	}
	if !r.Has(good) {
		t.Fatalf("valid prefix lost")
	}
	if n := r.NumChunks(); n != 1 {
		t.Fatalf("NumChunks = %d, want 1", n)
	}
	// The torn tail is physically truncated, so the next append
	// produces a clean frame boundary.
	next := mustPut(t, r, "leaf", nil, `[2]`)
	if err := r.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read pack after: %v", err)
	}
	if len(after) >= len(before)+framelog.HeaderSize {
		t.Fatalf("torn tail not truncated: %d bytes then %d", len(before), len(after))
	}
	rr, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatalf("final reopen: %v", err)
	}
	defer func() {
		if err := rr.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	if !rr.Has(good) || !rr.Has(next) {
		t.Fatalf("chunks lost after truncate+append")
	}
}

func TestCorruptPackFrameStopsScan(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	mustPut(t, s, "leaf", nil, `[1]`)
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	path := filepath.Join(dir, packName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	// Flip a payload byte: CRC mismatch must drop the frame.
	raw[len(raw)-1] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	r, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer func() {
		if err := r.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	if n := r.NumChunks(); n != 0 {
		t.Fatalf("NumChunks = %d, want 0 after CRC-failed frame", n)
	}
}

func TestPacketsVerifyHashes(t *testing.T) {
	s := NewMemory()
	h := mustPut(t, s, "leaf", nil, `[7]`)
	p, err := s.PacketOf(h)
	if err != nil {
		t.Fatalf("PacketOf: %v", err)
	}
	dst := NewMemory()
	if err := dst.AddPackets([]Packet{p}); err != nil {
		t.Fatalf("AddPackets: %v", err)
	}
	if !dst.Has(h) {
		t.Fatalf("packet not installed")
	}
	forged := Packet{Hash: p.Hash, Data: append(bytes.Clone(p.Data), ' ')}
	if err := dst.AddPackets([]Packet{forged}); !errors.Is(err, ErrBadPacket) {
		t.Fatalf("forged packet err = %v, want ErrBadPacket", err)
	}
}

func TestWantListAndPullFromShipOnlyDelta(t *testing.T) {
	src := NewMemory()
	db := demoDB(2000)
	c1, err := src.CommitDatabase("db/main", db, 0)
	if err != nil {
		t.Fatalf("commit v1: %v", err)
	}

	dst := NewMemory()
	if got := dst.WantList(c1.Hash, 0); len(got) != 1 || got[0] != c1.Hash {
		t.Fatalf("WantList on empty store = %v, want just the target", got)
	}
	moved1, err := dst.PullFrom(src, c1.Hash, 8)
	if err != nil {
		t.Fatalf("PullFrom v1: %v", err)
	}
	if !dst.HasClosure(c1.Hash) {
		t.Fatalf("closure incomplete after pull")
	}
	closure, err := src.Closure(c1.Hash)
	if err != nil {
		t.Fatalf("Closure: %v", err)
	}
	if moved1 != len(closure) {
		t.Fatalf("moved %d chunks, closure has %d", moved1, len(closure))
	}

	// Small edit → second version; the pull must ship only the delta.
	tab, err := db.Get("metrics")
	if err != nil {
		t.Fatalf("get table: %v", err)
	}
	if err := tab.Set(5, 2, storage.Float(999.5)); err != nil {
		t.Fatal(err)
	}
	c2, err := src.CommitDatabase("db/main", db, 1)
	if err != nil {
		t.Fatalf("commit v2: %v", err)
	}
	moved2, err := dst.PullFrom(src, c2.Hash, 8)
	if err != nil {
		t.Fatalf("PullFrom v2: %v", err)
	}
	if moved2 >= moved1/2 {
		t.Fatalf("delta pull moved %d chunks (full transfer was %d); negotiation is not sharing structure", moved2, moved1)
	}
	got, err := dst.MaterializeDatabase(c2.Tree)
	if err != nil {
		t.Fatalf("materialize on replica: %v", err)
	}
	gt, err := got.Get("metrics")
	if err != nil {
		t.Fatalf("replica table: %v", err)
	}
	if !gt.At(5, 2).Equal(storage.Float(999.5)) {
		t.Fatalf("replica row 5 = %v, want 999.5", gt.At(5, 2))
	}
}

func TestDeleteRootAndTruncateLog(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer func() {
		if err := s.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	tr := mustPut(t, s, "db", nil, `{"v":1}`)
	if _, err := s.Commit("a", tr, 0); err != nil {
		t.Fatalf("commit: %v", err)
	}
	if _, err := s.Commit("a", tr, 1); err != nil {
		t.Fatalf("commit: %v", err)
	}
	if _, err := s.Commit("a", tr, 2); err != nil {
		t.Fatalf("commit: %v", err)
	}
	if _, err := s.Commit("b", tr, 0); err != nil {
		t.Fatalf("commit: %v", err)
	}
	if err := s.TruncateLog("a", 2); err != nil {
		t.Fatalf("truncate: %v", err)
	}
	log, err := s.Log("a")
	if err != nil || len(log) != 2 || log[0].Turn != 1 {
		t.Fatalf("Log after truncate = %+v, %v", log, err)
	}
	requireReopensEqual(t, dir, s)
	if err := s.DeleteRoot("a"); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if _, err := s.Log("a"); !errors.Is(err, ErrUnknownRoot) {
		t.Fatalf("Log after delete err = %v", err)
	}
	requireReopensEqual(t, dir, s)
	if err := s.DeleteRoot("a"); !errors.Is(err, ErrUnknownRoot) {
		t.Fatalf("double delete err = %v", err)
	}
}

// demoDB builds a deterministic 3-column table for codec tests.
func demoDB(rows int) *storage.Database {
	db := storage.NewDatabase("demo")
	t := storage.NewTable("metrics", storage.Schema{
		{Name: "id", Kind: storage.KindInt},
		{Name: "region", Kind: storage.KindString, Description: "sales region"},
		{Name: "value", Kind: storage.KindFloat},
	})
	regions := []string{"north", "south", "east", "west"}
	for i := 0; i < rows; i++ {
		t.MustAppendRow(
			storage.Int(int64(i)),
			storage.Str(regions[i%len(regions)]),
			storage.Float(float64(i)*1.5),
		)
	}
	db.Put(t)
	return db
}

// flipJournalByte inverts one byte of dir's journal behind the store's
// back, as a failing disk would.
func flipJournalByte(t *testing.T, dir string, at int64) {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(dir, packName), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, at); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xFF
	if _, err := f.WriteAt(b, at); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptChunkIsAnErrorNotAnAnswer flips one payload byte of a
// chunk under the live store: every read of that chunk fails naming the
// chunk and its offset, no read returns the altered bytes, the chunks
// around it still read, and GC refuses to copy the damage forward.
func TestCorruptChunkIsAnErrorNotAnAnswer(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	b := s.NewBatch()
	before, err := b.Put("leaf", nil, []byte(`["before"]`))
	if err != nil {
		t.Fatal(err)
	}
	victim, err := b.Put("leaf", nil, []byte(`["the value 41 was computed from this"]`))
	if err != nil {
		t.Fatal(err)
	}
	tree, err := b.Put("db", []Hash{before, victim}, []byte(`{"v":1}`))
	if err != nil {
		t.Fatal(err)
	}
	c, err := b.Commit("db/main", tree, 0)
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, s, "leaf", nil, `["garbage for the sweep"]`)

	s.mu.RLock()
	off := s.chunks[victim].off
	s.mu.RUnlock()
	flipJournalByte(t, dir, off+framelog.HeaderSize+20) // inside the JSON string: still valid JSON

	var out []string
	wantErr := func(what string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s of a corrupt chunk succeeded (decoded %q)", what, out)
		}
		for _, part := range []string{string(victim), fmt.Sprintf("offset %d", off)} {
			if !strings.Contains(err.Error(), part) {
				t.Fatalf("%s error %q does not name %q", what, err, part)
			}
		}
	}
	_, err = s.Data(victim, &out)
	wantErr("Data", err)
	_, err = s.Kind(victim)
	wantErr("Kind", err)
	_, err = s.PacketOf(victim)
	wantErr("PacketOf", err)
	_, err = s.Packets([]Hash{before, victim})
	wantErr("Packets", err)

	// Graph walks need no bytes; the neighbours are intact.
	if !s.HasClosure(c.Hash) {
		t.Fatal("closure lost")
	}
	for _, h := range []Hash{before, tree, c.Hash} {
		if p, err := s.PacketOf(h); err != nil || hashBytes(p.Data) != h {
			t.Fatalf("neighbour %s of the corrupt chunk: %v", h, err)
		}
	}
	// The rewrite would have to read the victim to keep it: GC fails
	// before its rename and the journal stays as it was.
	if _, err := s.GC(); err == nil {
		t.Fatal("GC copied a chunk it could not verify")
	} else {
		wantErr("GC", err)
	}
	if p, err := s.PacketOf(before); err != nil || hashBytes(p.Data) != before {
		t.Fatalf("intact chunk after the refused GC: %v", err)
	}
	if p, err := s.PacketOf(victim); err == nil || !strings.Contains(err.Error(), string(victim)) {
		t.Fatalf("corrupt chunk after the refused GC = %q, %v; want an error naming it", p.Data, err)
	}
}

// TestIndexKeepsNoPayloadBytes is the memory guard behind "history costs
// disk, not RAM": after a 20 000 × 5 table is committed to a dir-backed
// store and the batch is dropped, the heap has grown by less than a
// fifth of what the journal grew by. A memory-only store has nowhere
// else to keep the bytes, so there — the one place — they stay resident.
func TestIndexKeepsNoPayloadBytes(t *testing.T) {
	db := storage.NewDatabase("guard")
	tab := storage.NewTable("wide", storage.Schema{
		{Name: "id", Kind: storage.KindInt},
		{Name: "a", Kind: storage.KindFloat},
		{Name: "b", Kind: storage.KindFloat},
		{Name: "name", Kind: storage.KindString},
		{Name: "n", Kind: storage.KindInt},
	})
	for i := 0; i < 20000; i++ {
		tab.MustAppendRow(storage.Int(int64(i)), storage.Float(float64(i)*1.25), storage.Float(float64(i)/7),
			storage.Str(fmt.Sprintf("row-%05d", i)), storage.Int(int64(i*i)))
	}
	db.Put(tab)
	heap := func() int64 {
		runtime.GC()
		runtime.GC() // a second cycle finishes sweeping what the first one freed
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	grownBy := func(s *Store) int64 {
		before := heap()
		if _, err := s.CommitDatabase("db/main", db, 0); err != nil {
			t.Fatal(err)
		}
		grown := heap() - before
		runtime.KeepAlive(s)
		return grown
	}

	dir := t.TempDir()
	durable, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := durable.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	grown := grownBy(durable)
	info, err := os.Stat(filepath.Join(dir, packName))
	if err != nil {
		t.Fatal(err)
	}
	journal := info.Size()
	t.Logf("journal %d bytes; heap grew by %d dir-backed", journal, grown)
	if grown >= journal/5 {
		t.Fatalf("committing a %d-byte journal grew the heap by %d bytes, want under a fifth: the index is holding payload bytes", journal, grown)
	}
	if _, err := durable.MaterializeDatabase(mustHead(t, durable, "db/main").Tree); err != nil {
		t.Fatalf("reading the table back from the journal: %v", err)
	}

	grown = grownBy(NewMemory())
	t.Logf("heap grew by %d memory-only", grown)
	if grown < journal*4/5 {
		t.Fatalf("a memory-only store grew the heap by only %d bytes for %d bytes of chunks: where are they?", grown, journal)
	}
	runtime.KeepAlive(db) // or the table's own bytes leave the heap inside the last measurement
}

func mustHead(t *testing.T, s *Store, root string) Commit {
	t.Helper()
	c, err := s.Head(root)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestClosedStoreRefusesReads: the journal was the only home of a
// dir-backed store's chunk bytes, so once it is closed a read is an
// error — not an empty packet.
func TestClosedStoreRefusesReads(t *testing.T) {
	s, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	h := mustPut(t, s, "leaf", nil, `[1]`)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if p, err := s.PacketOf(h); err == nil {
		t.Fatalf("PacketOf on a closed store = %q, want an error", p.Data)
	}
	if kind, err := s.Data(h, nil); err == nil {
		t.Fatalf("Data on a closed store = %q, want an error", kind)
	}
	if refs, err := s.Refs(h); err != nil || len(refs) != 0 || !s.Has(h) {
		t.Fatalf("the index itself outlives the journal: refs %v, %v", refs, err)
	}
}
