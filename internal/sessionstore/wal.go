package sessionstore

import (
	"encoding/json"
	"fmt"

	"github.com/reliable-cda/cda/internal/framelog"
)

// walMagic tags this package's frames in the shared framelog layout:
// one frame per record, the payload one JSON walRecord. The shipped
// replication frames are the same bytes.
const walMagic = byte(0xC5)

// ErrCrashed is returned by a commit whose WAL append was torn by an
// injected crash fault (faults.Injector.TornWrite). The store rolls
// the in-memory turn back so memory matches the durable prefix; the
// harness then reopens the directory to exercise recovery.
var ErrCrashed = framelog.ErrCrashed

// walRecord is the WAL payload. Kind is one of "create", "turn",
// "evict". Turn records carry Seq — the transcript index of the first
// turn of the committed pair — so replay over a checkpoint that already
// contains the pair is idempotent.
type walRecord struct {
	Kind  string    `json:"kind"`
	ID    string    `json:"id"`
	Num   int       `json:"num,omitempty"`
	Seq   int       `json:"seq,omitempty"`
	Focus string    `json:"focus,omitempty"`
	Turns []turnRec `json:"turns,omitempty"`
}

// turnRec is one transcript turn as persisted. Role and Intent use
// their canonical string names (dialogue.ParseRole / ParseIntent
// invert them exactly), keeping the log greppable while staying
// lossless.
type turnRec struct {
	Role       string  `json:"role"`
	Text       string  `json:"text"`
	Intent     string  `json:"intent,omitempty"`
	Confidence float64 `json:"confidence,omitempty"`
}

// WriteFaults is the crash seam the WAL threads its appends through;
// *faults.Injector implements it. Nil means no injected crashes.
type WriteFaults = framelog.Faults

// encodeRecord frames one record for the WAL and the replication tail.
func encodeRecord(rec walRecord) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("sessionstore: encode wal record: %w", err)
	}
	return framelog.Encode(walMagic, payload), nil
}

// decodeRecord parses one frame payload; a payload that is not a
// walRecord ends the trusted prefix exactly like a failed checksum.
func decodeRecord(payload []byte) (walRecord, bool) {
	var rec walRecord
	err := json.Unmarshal(payload, &rec)
	return rec, err == nil
}

// decodeFrame validates one shipped replication frame — exactly one
// complete WAL frame, nothing before or after it — with the same scan
// recovery uses.
func decodeFrame(data []byte) (walRecord, bool) {
	payloads, valid := framelog.Scan(walMagic, data)
	if len(payloads) != 1 || valid != len(data) {
		return walRecord{}, false
	}
	return decodeRecord(payloads[0])
}
