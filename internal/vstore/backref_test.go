package vstore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/reliable-cda/cda/internal/framelog"
)

// backScript lands a seeded mix of every way a chunk enters the store on
// each of stores alike: batches of nodes whose refs lie earlier in the
// journal, earlier in their own batch, or nowhere the store holds (a
// forward ref), each batch a version of one of three roots and now and
// then behind a mark; a data version; and a shipped version, adopted,
// whose packets arrive top-down in rounds of three.
func backScript(t testing.TB, seed int64, stores ...*Store) []Event {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	src := NewMemory()
	var known []Hash
	var events []Event
	for step := 0; step < 24; step++ {
		switch step {
		case 5:
			for i, s := range stores {
				c, err := s.CommitDatabase("db/main", demoDB(600), step)
				if err != nil {
					t.Fatal(err)
				}
				if i == 0 {
					events = append(events, Event{Root: "db/main", Commit: c})
				}
			}
			continue
		case 11:
			data, err := stores[0].Head("db/main")
			if err != nil {
				t.Fatal(err)
			}
			b := src.NewBatch(nil)
			leaf, err := b.Put("turns", nil, []byte("shipped"))
			if err != nil {
				t.Fatal(err)
			}
			mid, err := b.Put("sess", []Hash{leaf, data.Tree}, []byte{1})
			if err != nil {
				t.Fatal(err)
			}
			top, err := b.Put("shard", []Hash{mid, leaf}, []byte{2})
			if err != nil {
				t.Fatal(err)
			}
			c, err := b.Commit("shard/00", top, step)
			if err != nil {
				t.Fatal(err)
			}
			for i, s := range stores {
				// mid's ref to the data tree, which s holds whole, is not pulled.
				if _, err := pullFrom(src, s, c.Hash, 3); err != nil {
					t.Fatal(err)
				}
				head, err := adoptCommit(s, "shard/00", c.Hash)
				if err != nil {
					t.Fatal(err)
				}
				if i == 0 {
					events = append(events, Event{Root: "shard/00", Commit: head})
				}
			}
			continue
		}
		type put struct {
			kind string
			refs []Hash
			data []byte
		}
		var puts []put
		var staged []Hash
		for n := 1 + rng.Intn(4); n > 0; n-- {
			p := put{kind: fmt.Sprintf("n%d", rng.Intn(3)), data: []byte(fmt.Sprintf("%d.%d", step, n))}
			for r := rng.Intn(4); r > 0; r-- {
				switch k := rng.Intn(10); {
				case k < 5 && len(known) > 0:
					p.refs = append(p.refs, known[rng.Intn(len(known))])
				case k < 8 && len(staged) > 0:
					p.refs = append(p.refs, staged[rng.Intn(len(staged))])
				default:
					p.refs = append(p.refs, hashBytes([]byte(fmt.Sprintf("forward %d", rng.Intn(1000)))))
				}
			}
			h, _, err := encodeChunk(p.kind, p.refs, p.data)
			if err != nil {
				t.Fatal(err)
			}
			puts, staged = append(puts, p), append(staged, h)
		}
		root, mark := fmt.Sprintf("session/%d", rng.Intn(3)), rng.Intn(4) == 0
		for i, s := range stores {
			b := s.NewBatch(nil)
			if mark {
				b.Mark(root)
			}
			for _, p := range puts {
				if _, err := b.Put(p.kind, p.refs, p.data); err != nil {
					t.Fatal(err)
				}
			}
			c, err := b.Commit(root, staged[len(staged)-1], step)
			if err != nil {
				t.Fatal(err)
			}
			if i > 0 {
				continue
			}
			if mark {
				events = append(events, Event{Root: root, Mark: true})
			}
			events = append(events, Event{Root: root, Commit: c})
		}
		known = append(known, staged...)
	}
	return events
}

// requireSameChunks requires got to index the chunks want does, each
// with the same refs, kind, data and packet bytes, and every packet to
// hash to its address.
func requireSameChunks(t *testing.T, got, want *Store) {
	t.Helper()
	want.mu.RLock()
	hashes := make([]Hash, 0, len(want.chunks))
	for h := range want.chunks {
		hashes = append(hashes, h)
	}
	want.mu.RUnlock()
	if got.NumChunks() != len(hashes) {
		t.Fatalf("%d chunks, want %d", got.NumChunks(), len(hashes))
	}
	for _, h := range hashes {
		gp, gerr := got.PacketOf(h)
		wp, werr := want.PacketOf(h)
		if gerr != nil || werr != nil || !bytes.Equal(gp.Data, wp.Data) || hashBytes(gp.Data) != h {
			t.Fatalf("chunk %s reads back as %x (%v), want %x (%v)", h, gp.Data, gerr, wp.Data, werr)
		}
		gr, gerr := got.Refs(h)
		wr, werr := want.Refs(h)
		if gerr != nil || werr != nil || !reflect.DeepEqual(gr, wr) {
			t.Fatalf("chunk %s refs %v (%v), want %v (%v)", h, gr, gerr, wr, werr)
		}
		gk, gd, gerr := got.Data(h)
		wk, wd, werr := want.Data(h)
		if gerr != nil || werr != nil || gk != wk || !bytes.Equal(gd, wd) {
			t.Fatalf("chunk %s data %s %x (%v), want %s %x (%v)", h, gk, gd, gerr, wk, wd, werr)
		}
	}
}

// TestBackRefsReadBackCanonical runs backScript on a dir-backed store and
// a memory-only one: every chunk the journal holds reads back as the
// canonical payload its address hashes, with the refs and data the
// memory store holds for it — before a reopen and after one — and the
// journal spells refs in both forms.
func TestBackRefsReadBackCanonical(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		dir := t.TempDir()
		disk := openDir(t, dir)
		mem := NewMemory()
		events := backScript(t, seed, disk, mem)
		requireSameChunks(t, disk, mem)
		if got, want := allLogs(t, disk), allLogs(t, mem); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: root logs differ from the memory store's", seed)
		}
		requireCopyReopens(t, dir, disk, events)
		reopened := openDir(t, copyLeafFixture(t, dir))
		requireSameChunks(t, reopened, mem)
		forms := map[byte]int{}
		for _, p := range journalPayloads(t, filepath.Join(dir, packName)) {
			forms[p[0]]++
			if p[0] == tagCommit {
				if _, _, tree, err := cutCommitHead(p); err == nil {
					forms[0x40|tree[0]]++
				}
			}
		}
		if forms[tagBack] == 0 || forms[tagChunk] == 0 || forms[0x40|treeBack] == 0 || forms[0x40|treeInline] == 0 {
			t.Fatalf("seed %d: the journal holds frames by tag %v, want chunks and commit record nodes in both forms", seed, forms)
		}
	}
}

// TestAddPacketsKeepsForwardRefsWhole ships a three-level tree the way
// negotiation does, a level a round, parents first: each round's chunks
// ref chunks the next round brings, so they keep full addresses, land,
// and reopen.
func TestAddPacketsKeepsForwardRefsWhole(t *testing.T) {
	src := NewMemory()
	c, err := src.CommitDatabase("db/main", demoDB(2000), 0)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	dst := openDir(t, dir)
	if _, err := pullFrom(src, dst, c.Hash, 1000); err != nil {
		t.Fatal(err)
	}
	if !dst.HasClosure(c.Hash) {
		t.Fatal("closure incomplete after the ship")
	}
	for _, p := range journalPayloads(t, filepath.Join(dir, packName)) {
		rec, err := decodePayload(p)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(rec.R) + len(rec.B); n > 0 && p[0] != tagChunk {
			t.Errorf("a %s chunk with %d refs is framed with tag %#x", rec.K, n, p[0])
		}
	}
	requireSameChunks(t, dst, src)
	requireCopyReopens(t, dir, dst, nil)
}

// TestJournalRefusesBadBackRefs: a back form no writer produces ends the
// journal's valid prefix — Open keeps the frames before it, indexes
// their chunks and truncates the rest — and AddPackets refuses it, as
// it refuses every back form. A distance past the first chunk decodes,
// and only the scan, which knows the chunks before it, refuses it.
func TestJournalRefusesBadBackRefs(t *testing.T) {
	leaf, err := appendChunk("turns", nil, []byte("pair"))
	if err != nil {
		t.Fatal(err)
	}
	good := framelog.Encode(packMagic, leaf)
	back := func(kind string, dists ...uint64) []byte { return appendBack(kind, dists, []byte{1}) }
	record := func(node []byte) []byte {
		p, err := commitPayload("session/s1", 2, "", node)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	for _, row := range []struct {
		name    string
		payload []byte
		decodes bool
	}{
		{"a distance of 0", back("sess", 0), false},
		{"a distance past the first chunk", back("sess", 2), true},
		{"a distance past the first chunk, second of two refs", back("sess", 1, 2), true},
		{"a non-minimal uvarint distance", append([]byte{tagBack, 4}, "sess\x01\x81\x00\x01"...), false},
		{"no refs", append([]byte{tagBack, 4}, "sess\x00\x01"...), false},
		{"a ref count past its bytes", append([]byte{tagBack, 4}, "sess\x05\x01"...), false},
		{"a node past the first chunk in a commit record", record(back("sess", 2)), true},
		{"a node at distance 0 in a commit record", record(back("sess", 0)), false},
		{"a leaf node in a commit record", record(back("leaf", 1)), false},
		{"a commit node in a commit record", record(back("commit", 1)), false},
		{"a db node whose data its decoder refuses in a commit record", record(appendBack("db", []uint64{1}, []byte("["))), false},
	} {
		if _, err := decodePayload(row.payload); (err == nil) != row.decodes {
			t.Errorf("%s: decodePayload = %v, want it to decode: %v", row.name, err, row.decodes)
		}
		if err := NewMemory().AddPackets([]Packet{{Hash: hashBytes(row.payload), Data: row.payload}}); !errors.Is(err, ErrBadPacket) {
			t.Errorf("%s: AddPackets = %v, want ErrBadPacket", row.name, err)
		}
		dir := t.TempDir()
		journal := append(append(bytes.Clone(good), framelog.Encode(packMagic, row.payload)...), good...)
		if err := os.WriteFile(filepath.Join(dir, packName), journal, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := CheckFormat(dir); err != nil {
			t.Errorf("%s: CheckFormat = %v", row.name, err)
		}
		s := openDir(t, dir)
		if s.NumChunks() != 1 || len(s.Roots()) != 0 {
			t.Errorf("%s: Open indexed %d chunks and roots %v, want the one before it", row.name, s.NumChunks(), s.Roots())
		}
		if info, err := os.Stat(filepath.Join(dir, packName)); err != nil || info.Size() != int64(len(good)) {
			t.Errorf("%s: the journal is cut to %v bytes (%v), want %d", row.name, info.Size(), err, len(good))
		}
	}
}

// TestCheckFormatReadsBackFormsUnresolved: CheckFormat takes each frame's
// form from its bytes alone. A journal of back forms is this store's
// format; behind one whose distance reaches before the first chunk — a
// frame Open would end the journal at — a JSON frame is still the
// older format it names, at its offset.
func TestCheckFormatReadsBackFormsUnresolved(t *testing.T) {
	dir := t.TempDir()
	commitOrdersFixture(t, openDir(t, dir))
	pack, err := os.ReadFile(filepath.Join(dir, packName))
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckFormat(dir); err != nil {
		t.Fatalf("CheckFormat on a journal this code wrote = %v", err)
	}
	far := framelog.Encode(packMagic, appendBack("sess", []uint64{1 << 20}, nil))
	old := framelog.Encode(packMagic, []byte(`{"k":"leaf","d":{"t":1,"v":[1]}}`))
	if err := os.WriteFile(filepath.Join(dir, packName), append(append(bytes.Clone(pack), far...), old...), 0o644); err != nil {
		t.Fatal(err)
	}
	var older *FormatError
	if err := CheckFormat(dir); !errors.As(err, &older) || !bytes.Contains([]byte(err.Error()), []byte(fmt.Sprintf("offset %d", len(pack)+len(far)))) {
		t.Fatalf("CheckFormat = %v, want a *FormatError at offset %d", err, len(pack)+len(far))
	}
}

// backJournals are journals this code writes, their refs spelled back:
// the leaf fixtures' commits and backScript's first seed.
func backJournals(t testing.TB) [][]byte {
	t.Helper()
	var out [][]byte
	for _, write := range []func(*Store){
		func(s *Store) { commitLeafFixture(t, s) },
		func(s *Store) { commitOrdersFixture(t, s) },
		func(s *Store) { backScript(t, 1, s) },
	} {
		dir := t.TempDir()
		s, err := Open(Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		write(s)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		pack, err := os.ReadFile(filepath.Join(dir, packName))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(pack, []byte{tagBack}) {
			t.Fatal("a journal this code wrote holds no back form")
		}
		out = append(out, pack)
	}
	return out
}

// frameCuts are pack whole and cut after each of its frames.
func frameCuts(pack []byte) [][]byte {
	payloads, _ := framelog.Scan(packMagic, pack)
	cuts := [][]byte{pack}
	end := 0
	for _, p := range payloads[:len(payloads)-1] {
		end += framelog.HeaderSize + len(p)
		cuts = append(cuts, pack[:end])
	}
	return cuts
}
