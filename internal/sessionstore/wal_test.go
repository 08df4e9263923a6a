package sessionstore

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"github.com/reliable-cda/cda/internal/framelog"
	"github.com/reliable-cda/cda/internal/vstore"
)

// walPayloads reads every record payload of a fixture's shard WALs,
// which are whole frames end to end.
func walPayloads(t testing.TB, fixture string) [][]byte {
	t.Helper()
	var all [][]byte
	for _, name := range shardFiles {
		path := filepath.Join(fixture, name)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		payloads, valid := framelog.Scan(walMagic, raw)
		if len(payloads) == 0 || valid != len(raw) {
			t.Fatalf("%s: %d frames cover %d of %d bytes", path, len(payloads), valid, len(raw))
		}
		all = append(all, payloads...)
	}
	return all
}

// FuzzDecodeRecord feeds the WAL record decoders any bytes, seeded with
// every frame of the format-v6 and tree-v6 shard WALs, whole and with
// its checksum flipped, and with every frame of the v4 ones, whose JSON
// records must be refused as a *vstore.FormatError. decodeFrame reads
// the bytes as a shipped frame and decodeRecord reads what follows a
// frame header as a payload (so a mutated payload reaches the binary
// decoder even when its checksum no longer matches). Neither may panic,
// and whatever decodes encodes back through encodeRecord to the bytes it
// was decoded from: the decoder takes no record in two spellings.
func FuzzDecodeRecord(f *testing.F) {
	for _, fixture := range []string{formatFixtureV6, treeFixtureV6} {
		for _, p := range walPayloads(f, fixture) {
			frame := framelog.Encode(walMagic, p)
			f.Add(frame)
			// With its checksum flipped, decodeFrame refuses the frame and
			// decodeRecord still reads the payload.
			frame = bytes.Clone(frame)
			frame[framelog.HeaderSize-1] ^= 0xFF
			f.Add(frame)
		}
	}
	for _, fixture := range []string{formatFixtureV4, treeFixtureV4} {
		for _, p := range walPayloads(f, fixture) {
			var old *vstore.FormatError
			if _, err := decodeRecord(p); !errors.As(err, &old) {
				f.Fatalf("%s: the record %q decodes with %v, want a *vstore.FormatError", fixture, p, err)
			}
			f.Add(framelog.Encode(walMagic, p))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if rec, err := decodeFrame(data); err == nil {
			reencodes(t, rec, data)
		}
		if len(data) >= framelog.HeaderSize {
			payload := data[framelog.HeaderSize:]
			if rec, err := decodeRecord(payload); err == nil {
				reencodes(t, rec, framelog.Encode(walMagic, payload))
			}
		}
	})
}

// reencodes fails t unless rec encodes to frame, the bytes it decoded
// from.
func reencodes(t *testing.T, rec walRecord, frame []byte) {
	t.Helper()
	got, err := encodeRecord(rec)
	if err != nil {
		t.Fatalf("%+v decoded from %q and does not encode: %v", rec, frame, err)
	}
	if !bytes.Equal(got, frame) {
		t.Fatalf("%+v decoded from %q encodes as %q", rec, frame, got)
	}
}
