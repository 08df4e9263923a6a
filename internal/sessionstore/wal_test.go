package sessionstore

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/reliable-cda/cda/internal/framelog"
)

// FuzzDecodeRecord feeds the WAL record decoders any bytes, seeded with
// every frame of the format-v4 and tree-v4 shard WALs, whole and with
// its checksum flipped. decodeFrame
// reads the bytes as a shipped frame and decodeRecord reads what
// follows a frame header as a payload (so a mutated payload reaches the
// JSON decoder even when its checksum no longer matches). Neither may
// panic, and whatever decodes re-encodes through encodeRecord to a
// frame that decodes equal.
func FuzzDecodeRecord(f *testing.F) {
	var wals []string
	for _, fixture := range []string{formatFixtureV4, treeFixtureV4} {
		for _, name := range shardFiles {
			wals = append(wals, filepath.Join(fixture, name))
		}
	}
	for _, path := range wals {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		payloads, valid := framelog.Scan(walMagic, raw)
		if len(payloads) == 0 || valid != len(raw) {
			f.Fatalf("%s: %d frames cover %d of %d bytes", path, len(payloads), valid, len(raw))
		}
		for _, p := range payloads {
			frame := framelog.Encode(walMagic, p)
			f.Add(frame)
			// With its checksum flipped, decodeFrame refuses the frame and
			// decodeRecord still reads the payload.
			frame = bytes.Clone(frame)
			frame[framelog.HeaderSize-1] ^= 0xFF
			f.Add(frame)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if rec, ok := decodeFrame(data); ok {
			reencodes(t, rec)
		}
		if len(data) >= framelog.HeaderSize {
			if rec, ok := decodeRecord(data[framelog.HeaderSize:]); ok {
				reencodes(t, rec)
			}
		}
	})
}

// reencodes fails t unless rec survives encodeRecord → decodeFrame. An
// empty turns list and none are the same record: omitempty writes
// neither.
func reencodes(t *testing.T, rec walRecord) {
	t.Helper()
	frame, err := encodeRecord(rec)
	if err != nil {
		t.Fatalf("%+v decoded and does not encode: %v", rec, err)
	}
	back, ok := decodeFrame(frame)
	if len(rec.Turns) == 0 {
		rec.Turns = nil
	}
	if !ok || !reflect.DeepEqual(back, rec) {
		t.Fatalf("%+v re-encoded as %q decodes to %+v, %v", rec, frame, back, ok)
	}
}
