package sessionstore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/reliable-cda/cda/internal/dialogue"
	"github.com/reliable-cda/cda/internal/framelog"
	"github.com/reliable-cda/cda/internal/vstore"
)

// refusedTurns are the turn shapes no writer spells, each as a turns
// chunk and a WAL record would carry it: a system turn with an intent
// code, and a user turn without one.
var refusedTurns = []struct {
	name string
	data []byte
}{
	{"a system turn with an intent code", []byte{turnSystem, 6, 1, 'a'}},
	{"a user turn with intent code 0", []byte{0, 0, 1, 'q'}},
}

// refusedRecord is a turn record at ship sequence ship whose one turn is
// turn's bytes, framed as the WAL and a ship batch carry it.
func refusedRecord(t testing.TB, ship int64, turn []byte) []byte {
	t.Helper()
	p, err := appendRecord(nil, walRecord{Kind: kindTurn, Ship: ship, ID: "s0001"})
	if err != nil {
		t.Fatal(err)
	}
	return framelog.Encode(walMagic, append(p, turn...))
}

// TestTurnCodecRoundTrip: a user turn of every intent, and a system turn
// with a confidence, come back from a WAL record and from a turns chunk
// as they went in, each intent under its code in the format's table.
func TestTurnCodecRoundTrip(t *testing.T) {
	type row struct {
		turn dialogue.Turn
		code byte
	}
	rows := []row{{dialogue.Turn{Role: dialogue.RoleSystem, Text: "an answer", Confidence: 0.625}, 0}}
	for i, intent := range []dialogue.Intent{dialogue.IntentUnknown, dialogue.IntentDiscover,
		dialogue.IntentDescribe, dialogue.IntentChoose, dialogue.IntentAnalyze, dialogue.IntentQuery,
		dialogue.IntentConfirm, dialogue.IntentFollowUp} {
		rows = append(rows, row{dialogue.Turn{Text: "a question", Intent: intent}, byte(i + 1)})
	}
	for _, r := range rows {
		t.Run(fmt.Sprintf("%s code %d", r.turn.Role, r.code), func(t *testing.T) {
			want := []dialogue.Turn{r.turn}
			frame, err := encodeRecord(walRecord{Kind: kindTurn, Ship: 1, ID: "s0001", Turns: want})
			if err != nil {
				t.Fatal(err)
			}
			if rec, err := decodeFrame(frame); err != nil || !reflect.DeepEqual(rec.Turns, want) {
				t.Errorf("WAL record decodes to %+v, %v; want %+v", rec.Turns, err, want)
			}
			data, err := encodeTurns(want)
			if err != nil {
				t.Fatal(err)
			}
			if data[1] != r.code {
				t.Errorf("intent code %d, want %d", data[1], r.code)
			}
			if got, err := decodeTurns(data, 1); err != nil || !reflect.DeepEqual(got, want) {
				t.Errorf("turns chunk decodes to %+v, %v; want %+v", got, err, want)
			}
		})
	}
}

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
// every frame of the format-v7 and tree-v7 shard WALs, whole and with
// its checksum flipped, with every frame of the v4 ones, whose JSON
// records must be refused as a *vstore.FormatError, and with a turn
// record of each of refusedTurns. decodeFrame reads
// the bytes as a shipped frame and decodeRecord reads what follows a
// frame header as a payload (so a mutated payload reaches the binary
// decoder even when its checksum no longer matches). Neither may panic,
// and whatever decodes encodes back through encodeRecord to the bytes it
// was decoded from: the decoder takes no record in two spellings.
func FuzzDecodeRecord(f *testing.F) {
	for _, fixture := range []string{formatFixtureV7, treeFixtureV7} {
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
	for _, rt := range refusedTurns {
		f.Add(refusedRecord(f, 1, rt.data))
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
