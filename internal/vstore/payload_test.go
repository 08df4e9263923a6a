package vstore

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"github.com/reliable-cda/cda/internal/framelog"
)

// fixtureJournals are the journals the leaf and session fixtures of the
// format this store writes hold, v6Journals the same fixtures as the
// commit before commit records wrote them, which this store reads, and
// v5Journals the same as the commit before binary payloads wrote them.
// retentionJournal is a v7 journal that holds set records, which only
// retention wrote: setLastReader's code ran commits, a TruncateLog, a
// DeleteRoot, a GC, a commit and a TruncateLog on a fresh Open, then
// Closed it.
var (
	fixtureJournals = []string{
		filepath.Join(readingsFixture, packName),
		filepath.Join(leafFixture, packName),
		filepath.Join("..", "sessionstore", "testdata", "format-v7", "vstore", packName),
		filepath.Join("..", "sessionstore", "testdata", "tree-v7", "vstore", packName),
	}
	v6Journals = []string{
		filepath.Join(readingsFixtureV6, packName),
		filepath.Join(leafFixtureV6, packName),
		filepath.Join("..", "sessionstore", "testdata", "format-v6", "vstore", packName),
		filepath.Join("..", "sessionstore", "testdata", "tree-v6", "vstore", packName),
	}
	v5Journals = []string{
		filepath.Join("testdata", "readings-v5", packName),
		filepath.Join("testdata", "leaf-v5", packName),
		filepath.Join("..", "sessionstore", "testdata", "format-v5", "vstore", packName),
		filepath.Join("..", "sessionstore", "testdata", "tree-v5", "vstore", packName),
	}
	retentionJournal = filepath.Join("testdata", "retention-v7", packName)
)

// retentionSetRecord is the first set record of retentionJournal.
func retentionSetRecord(t testing.TB) []byte {
	t.Helper()
	for _, p := range journalPayloads(t, retentionJournal) {
		if p[0] == tagSet {
			return p
		}
	}
	t.Fatalf("%s holds no set record", retentionJournal)
	return nil
}

// journalPayloads reads every frame payload of a fixture journal, which
// must end on a whole frame.
func journalPayloads(t testing.TB, path string) [][]byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	payloads, valid := framelog.Scan(packMagic, raw)
	if valid != len(raw) {
		t.Fatalf("%s: frames end at %d of %d bytes", path, valid, len(raw))
	}
	return payloads
}

// canonicalJournal reads the journal of s, a dir-backed store the
// journal's writes are all installed in, and renders it with every back
// form canonical: each back-form chunk frame its canonical payload, and
// each commit record that carries its node in form 6 the record that
// carries the canonical node in form 1.
func canonicalJournal(t testing.TB, s *Store) []byte {
	t.Helper()
	s.mu.RLock()
	order := make([]Hash, s.next)
	for h, c := range s.chunks {
		order[c.place] = h
	}
	s.mu.RUnlock()
	var out []byte
	var place int
	for _, p := range journalPayloads(t, filepath.Join(s.cfg.Dir, packName)) {
		rec, err := decodePayload(p)
		if err != nil {
			t.Fatal(err)
		}
		render := func(f chunkFields) []byte {
			refs, err := resolveBack(order[:place], f.B)
			if err != nil {
				t.Fatal(err)
			}
			canonical, err := appendChunk(f.K, refs, f.D)
			if err != nil {
				t.Fatal(err)
			}
			return canonical
		}
		switch {
		case p[0] == tagBack:
			p = render(rec.chunkFields)
			place++
		case p[0] == tagChunk:
			place++
		case rec.Version != nil && rec.Version.Node == nil:
			place++
		case rec.Version != nil:
			if rec.Version.Node[0] == treeBack {
				p = append(slices.Clip(p[:len(p)-len(rec.Version.Node)]), render(rec.Version.Inline)...)
			}
			place += 2
		}
		out = append(out, framelog.Encode(packMagic, p)...)
	}
	return out
}

// reencode renders a decoded payload again.
func reencode(p []byte, rec record) ([]byte, error) {
	switch p[0] {
	case tagAppend:
		return appendPayload(*rec.Root, rec.Commit)
	case tagMark:
		return markPayload(*rec.Root)
	case tagCommit:
		return commitPayload(*rec.Root, rec.Version.Turn, rec.Version.Tree, rec.Version.Node)
	case tagBack:
		return appendBack(rec.K, rec.B, rec.D), nil
	}
	return appendChunk(rec.K, rec.R, rec.D)
}

// FuzzDecodePayload feeds arbitrary bytes to the journal's payload
// decoder: it never panics; every payload it accepts is the one encoding
// the writer produces for what it decoded, byte for byte; and a payload
// AddPackets' check accepts lists refs that are addresses and installs
// as a chunk whose kind and refs read back as decoded. Seeded with every
// frame of the fixture journals, whole and cut one byte short, with
// every frame of the journals this code writes, whose refs are spelled
// back, whole and cut one byte short, with every frame of the v5
// journals — whose JSON payloads it must refuse as an older format, and whose binary chunks carry JSON commit, session
// and shard data — with every frame of retention-v7, whose set records
// it must refuse as an older format too, and with the forged payloads.
// The v7 journals hold commit records, in both forms; the v6 ones, which
// this store also reads, their commit chunks and append records.
func FuzzDecodePayload(f *testing.F) {
	// The seeds must carry a leaf of every form through checkShipped, so
	// that parseLeaf is fuzzed as a peer's input.
	leafForms := map[string]bool{}
	for _, path := range slices.Concat(fixtureJournals, v6Journals) {
		for _, p := range journalPayloads(f, path) {
			f.Add(p)
			f.Add(p[:len(p)-1])
			if rec, err := decodePayload(p); err == nil && rec.K == "leaf" && checkShipped(rec) == nil {
				leaf, err := parseLeaf(rec.D)
				if err != nil {
					f.Fatal(err)
				}
				switch {
				case leaf.Dict != nil:
					leafForms["dictionary"] = true
				case leaf.P != nil:
					leafForms["packed"] = true
				case leaf.DR != nil:
					leafForms["runs"] = true
				case leaf.V != nil:
					leafForms["plain"] = true
				}
			}
		}
	}
	for _, form := range []string{"plain", "runs", "dictionary", "packed"} {
		if !leafForms[form] {
			f.Fatalf("no seed ships a %s leaf", form)
		}
	}
	for _, pack := range backJournals(f) {
		payloads, _ := framelog.Scan(packMagic, pack)
		for _, p := range payloads {
			f.Add(p)
			f.Add(p[:len(p)-1])
		}
	}
	for _, path := range v5Journals {
		for _, p := range journalPayloads(f, path) {
			var old *FormatError
			if _, err := decodePayload(p); p[0] == '{' && !errors.As(err, &old) {
				f.Fatalf("%s: a v5 JSON payload decodes with %v, want a *FormatError", path, err)
			}
			f.Add(p)
		}
	}
	for _, p := range journalPayloads(f, retentionJournal) {
		var old *FormatError
		if _, err := decodePayload(p); p[0] == tagSet && !errors.As(err, &old) {
			f.Fatalf("%s: a set record decodes with %v, want a *FormatError", retentionJournal, err)
		}
		f.Add(p)
	}
	for _, forged := range forgedPayloads(f) {
		f.Add(forged.payload)
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		rec, err := decodePayload(p)
		if err != nil {
			return
		}
		if again, err := reencode(p, rec); err != nil || !bytes.Equal(again, p) {
			t.Fatalf("decoded %+v re-encodes as %x, %v; was %x", rec, again, err, p)
		}
		if checkShipped(rec) != nil {
			return
		}
		for _, r := range rec.R {
			if !isAddr(r) {
				t.Fatalf("shipped chunk accepted with ref %q", r)
			}
		}
		s := NewMemory()
		h := hashBytes(p)
		if err := s.AddPackets([]Packet{{Hash: h, Data: p}}); err != nil {
			t.Fatalf("a payload the check accepts is refused: %v", err)
		}
		kind, _, err := s.Data(h)
		if err != nil || kind != rec.K {
			t.Fatalf("installed chunk has kind %q, %v; decoded %q", kind, err, rec.K)
		}
		if refs, err := s.Refs(h); err != nil || (len(refs) > 0 || len(rec.R) > 0) && !reflect.DeepEqual(refs, rec.R) {
			t.Fatalf("installed chunk has refs %v, %v; decoded %v", refs, err, rec.R)
		}
	})
}
