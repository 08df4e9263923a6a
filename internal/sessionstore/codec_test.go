package sessionstore

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/reliable-cda/cda/internal/dialogue"
	"github.com/reliable-cda/cda/internal/framelog"
)

// refusedTurns are the turn shapes no writer spells, each as a turns
// chunk and a shipped pair would carry it: a system turn with an intent
// code, and a user turn without one.
var refusedTurns = []struct {
	name string
	data []byte
}{
	{"a system turn with an intent code", []byte{turnSystem, 6, 1, 'a'}},
	{"a user turn with intent code 0", []byte{0, 0, 1, 'q'}},
}

// TestTurnCodecRoundTrip: a user turn of every intent, and a system turn
// with a confidence, come back from a turns chunk as they went in, each
// intent under its code in the format's table.
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
		payloads, valid := framelog.Scan(shardWALMagic, raw)
		if len(payloads) == 0 || valid != len(raw) {
			t.Fatalf("%s: %d frames cover %d of %d bytes", path, len(payloads), valid, len(raw))
		}
		all = append(all, payloads...)
	}
	return all
}
