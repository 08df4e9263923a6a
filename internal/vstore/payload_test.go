package vstore

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/reliable-cda/cda/internal/framelog"
)

// olderForm is the JSON that stores before binary refs wrote for the
// binary payload p, which this one refuses; nil for a JSON payload.
func olderForm(t testing.TB, p []byte) []byte {
	rec, err := decodePayload(p)
	if err != nil {
		t.Fatal(err)
	}
	var old []byte
	switch p[0] {
	case tagChunk:
		old, err = json.Marshal(rec.envelope)
	case tagAppend:
		old, err = rootPayload(rec.rootRecord)
	default:
		return nil
	}
	if err != nil {
		t.Fatal(err)
	}
	return old
}

// FuzzDecodePayload feeds arbitrary bytes to the journal's payload
// decoder: it never panics; a binary payload it accepts is the one
// encoding the writer produces for what it decoded, byte for byte; and a
// payload AddPackets' check accepts lists refs that are addresses and
// installs as a chunk whose kind and refs read back as decoded. Seeded
// with every frame of the journals the leaf and session fixtures hold,
// JSON and binary, each binary one also in its older JSON form and cut
// one byte short, and with the forged payloads.
func FuzzDecodePayload(f *testing.F) {
	for _, path := range []string{
		filepath.Join(readingsFixture, packName),
		filepath.Join(leafFixtureV5, packName),
		filepath.Join("..", "sessionstore", "testdata", "format-v4", "vstore", packName),
		filepath.Join("..", "sessionstore", "testdata", "tree-v4", "vstore", packName),
	} {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		payloads, valid := framelog.Scan(packMagic, raw)
		if valid != len(raw) {
			f.Fatalf("%s: frames end at %d of %d bytes", path, valid, len(raw))
		}
		for _, p := range payloads {
			f.Add(p)
			if old := olderForm(f, p); old != nil {
				f.Add(old)
				f.Add(p[:len(p)-1])
			}
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
		var again []byte
		switch p[0] {
		case tagChunk:
			again, err = appendChunk(rec.K, rec.R, rec.D)
		case tagAppend:
			again, err = appendPayload(*rec.Root, rec.Commit)
		}
		if err != nil || (again != nil && !bytes.Equal(again, p)) {
			t.Fatalf("decoded %+v re-encodes as %x, %v; was %x", rec, again, err, p)
		}
		if checkShipped(p, rec) != nil {
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
