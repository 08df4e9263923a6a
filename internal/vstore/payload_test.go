package vstore

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/reliable-cda/cda/internal/framelog"
)

// fixtureJournals are the journals the leaf and session fixtures of the
// format this store writes hold, and v5Journals the same fixtures as the
// commit before binary payloads wrote them.
var (
	fixtureJournals = []string{
		filepath.Join(readingsFixture, packName),
		filepath.Join(leafFixture, packName),
		filepath.Join("..", "sessionstore", "testdata", "format-v6", "vstore", packName),
		filepath.Join("..", "sessionstore", "testdata", "tree-v6", "vstore", packName),
	}
	v5Journals = []string{
		filepath.Join("testdata", "readings-v5", packName),
		filepath.Join("testdata", "leaf-v5", packName),
		filepath.Join("..", "sessionstore", "testdata", "format-v5", "vstore", packName),
		filepath.Join("..", "sessionstore", "testdata", "tree-v5", "vstore", packName),
	}
)

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

// reencode renders a decoded payload again.
func reencode(p []byte, rec record) ([]byte, error) {
	switch p[0] {
	case tagAppend:
		return appendPayload(*rec.Root, rec.Commit)
	case tagSet:
		return setPayload(*rec.Root, rec.Log, rec.Stamp)
	}
	return appendChunk(rec.K, rec.R, rec.D)
}

// FuzzDecodePayload feeds arbitrary bytes to the journal's payload
// decoder: it never panics; every payload it accepts is the one encoding
// the writer produces for what it decoded, byte for byte; and a payload
// AddPackets' check accepts lists refs that are addresses and installs
// as a chunk whose kind and refs read back as decoded. Seeded with every
// frame of the fixture journals, whole and cut one byte short, with
// every frame of the v5 journals — whose JSON payloads it must refuse as
// an older format, and whose binary chunks carry JSON commit, session
// and shard data — and with the forged payloads.
func FuzzDecodePayload(f *testing.F) {
	for _, path := range fixtureJournals {
		for _, p := range journalPayloads(f, path) {
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
		kind, err := s.Kind(h)
		if err != nil || kind != rec.K {
			t.Fatalf("installed chunk has kind %q, %v; decoded %q", kind, err, rec.K)
		}
		if refs, err := s.Refs(h); err != nil || (len(refs) > 0 || len(rec.R) > 0) && !reflect.DeepEqual(refs, rec.R) {
			t.Fatalf("installed chunk has refs %v, %v; decoded %v", refs, err, rec.R)
		}
	})
}
