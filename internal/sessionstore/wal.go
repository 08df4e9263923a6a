package sessionstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"unicode/utf8"

	"github.com/reliable-cda/cda/internal/dialogue"
	"github.com/reliable-cda/cda/internal/framelog"
	"github.com/reliable-cda/cda/internal/vstore"
)

// walMagic tags this package's frames in the shared framelog layout:
// one frame per record, the payload one binary walRecord — the unit the
// replication tail holds and ships, and the shard WALs of older stores
// held on disk.
const walMagic = byte(0xC5)

// ErrCrashed is returned by a commit whose journal append was torn by an
// injected crash fault (faults.Injector.TornWrite), and by every commit
// after it. The session's next turn starts from the durable prefix, as
// after any failed commit; the harness then reopens the directory to
// exercise recovery.
var ErrCrashed = framelog.ErrCrashed

// recordKind is a record's first byte. The values are the format:
// never renumber them.
type recordKind byte

// The record kinds.
const (
	kindCreate recordKind = 1
	kindTurn   recordKind = 2
	kindEvict  recordKind = 3
)

// walRecord is a record's frame payload. Ship is the record's ship
// sequence, the shard cursor it advances to, so a replica can tell a
// record it already holds. A create record carries Num, a turn record
// Seq — the transcript index of the first turn of the committed pair,
// which must be the session's turn count when it applies — its Focus and
// its Turns; an evict record only its ID.
type walRecord struct {
	Kind  recordKind
	Ship  int64
	ID    string
	Num   int
	Seq   int
	Focus string
	Turns []dialogue.Turn
}

// A turn's first byte: its role, and whether its confidence follows its
// text. No other bit is set.
const (
	turnSystem   = 1 << 0
	turnConf     = 1 << 1
	turnKnownSet = turnSystem | turnConf
)

// intentCodes is a user turn's intent byte, by code: the format, not
// dialogue.Intent's numbering — append to it, never reorder it. Code 0
// is no intent, which a system turn has and a user turn never does.
var intentCodes = [...]dialogue.Intent{
	1: dialogue.IntentUnknown,
	2: dialogue.IntentDiscover,
	3: dialogue.IntentDescribe,
	4: dialogue.IntentChoose,
	5: dialogue.IntentAnalyze,
	6: dialogue.IntentQuery,
	7: dialogue.IntentConfirm,
	8: dialogue.IntentFollowUp,
}

// WriteFaults is the crash seam the journal threads its appends
// through; *faults.Injector implements it. Nil means no injected crashes.
type WriteFaults = framelog.Faults

// encodeRecord frames one record for the replication tail.
// Its payload is
//
//	kind · uvarint ship · uvarint len(id) · id ·
//	create: uvarint num | turn: uvarint seq · uvarint len(focus) · focus · turn… | evict: nothing
//
// and each turn
//
//	flags · intent code · uvarint len(text) · text · [8-byte LE float64 confidence, when flags say so]
//
// Every string must be valid UTF-8, and a confidence finite. A system
// turn's intent is not written: encodeTurn drops it before a commit.
func encodeRecord(rec walRecord) ([]byte, error) {
	p, err := appendRecord(make([]byte, 0, 64), rec)
	if err != nil {
		return nil, fmt.Errorf("sessionstore: encode wal record: %w", err)
	}
	return framelog.Encode(walMagic, p), nil
}

func appendRecord(p []byte, rec walRecord) ([]byte, error) {
	if rec.Ship < 0 || rec.Num < 0 || rec.Seq < 0 {
		return nil, fmt.Errorf("kind %d record for %q at ship %d has a negative count", rec.Kind, rec.ID, rec.Ship)
	}
	p = append(p, byte(rec.Kind))
	p = binary.AppendUvarint(p, uint64(rec.Ship))
	p, err := appendString(p, rec.ID)
	if err != nil {
		return nil, err
	}
	switch rec.Kind {
	case kindCreate:
		return binary.AppendUvarint(p, uint64(rec.Num)), nil
	case kindTurn:
		p = binary.AppendUvarint(p, uint64(rec.Seq))
		if p, err = appendString(p, rec.Focus); err != nil {
			return nil, err
		}
		for _, tr := range rec.Turns {
			if p, err = appendTurnBytes(p, tr); err != nil {
				return nil, err
			}
		}
		return p, nil
	case kindEvict:
		return p, nil
	}
	return nil, fmt.Errorf("unknown record kind %d", rec.Kind)
}

func appendTurnBytes(p []byte, t dialogue.Turn) ([]byte, error) {
	var flags, code byte
	switch t.Role {
	case dialogue.RoleUser:
		i := slices.Index(intentCodes[1:], t.Intent)
		if i < 0 {
			return nil, fmt.Errorf("turn intent %d", t.Intent)
		}
		code = byte(i + 1)
	case dialogue.RoleSystem:
		flags |= turnSystem
	default:
		return nil, fmt.Errorf("turn role %d", t.Role)
	}
	if t.Confidence != 0 {
		if math.IsNaN(t.Confidence) || math.IsInf(t.Confidence, 0) {
			return nil, fmt.Errorf("turn confidence %v", t.Confidence)
		}
		flags |= turnConf
	}
	p = append(p, flags, code)
	p, err := appendString(p, t.Text)
	if err != nil || flags&turnConf == 0 {
		return p, err
	}
	return binary.LittleEndian.AppendUint64(p, math.Float64bits(t.Confidence)), nil
}

// encodeTurns renders a turns chunk's data: its turns end to end, each
// as a record spells it.
func encodeTurns(turns []dialogue.Turn) ([]byte, error) {
	var p []byte
	for _, tr := range turns {
		var err error
		if p, err = appendTurnBytes(p, tr); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// decodeTurns reads a turns chunk's data: at least one turn and at most
// per, and nothing else.
func decodeTurns(data []byte, per int) ([]dialogue.Turn, error) {
	d := recordDecoder{p: data}
	var turns []dialogue.Turn
	for d.err == nil && len(d.p) > 0 && len(turns) < per {
		turns = append(turns, d.turn())
	}
	if err := d.end("a turns chunk's last turn"); err != nil {
		return nil, err
	}
	if len(turns) == 0 {
		return nil, errors.New("a turns chunk holds no turn")
	}
	return turns, nil
}

func appendString(p []byte, s string) ([]byte, error) {
	if !utf8.ValidString(s) {
		return nil, fmt.Errorf("string %q is not valid UTF-8", s)
	}
	p = binary.AppendUvarint(p, uint64(len(s)))
	return append(p, s...), nil
}

// decodeRecord parses one frame payload. It takes only the bytes
// encodeRecord writes for what it decodes to, so decoding and encoding
// again gives back the payload; anything else is an error. A payload
// that opens a JSON object is a record older stores wrote, a
// *vstore.FormatError.
func decodeRecord(p []byte) (walRecord, error) {
	if len(p) > 0 && p[0] == '{' {
		return walRecord{}, &vstore.FormatError{Format: "a JSON WAL record", Reader: jsonWALLastReader}
	}
	d := recordDecoder{p: p}
	rec := walRecord{Kind: recordKind(d.byte("kind"))}
	rec.Ship = int64(d.uvarint("ship sequence", math.MaxInt64))
	rec.ID = d.string("id")
	switch rec.Kind {
	case kindCreate:
		rec.Num = int(d.uvarint("num", math.MaxInt))
	case kindTurn:
		rec.Seq = int(d.uvarint("seq", math.MaxInt))
		rec.Focus = d.string("focus")
		for d.err == nil && len(d.p) > 0 {
			rec.Turns = append(rec.Turns, d.turn())
		}
	case kindEvict:
	default:
		d.fail(fmt.Errorf("unknown record kind %d", rec.Kind))
	}
	if err := d.end(fmt.Sprintf("a kind %d record", rec.Kind)); err != nil {
		return walRecord{}, fmt.Errorf("sessionstore: wal record: %w", err)
	}
	return rec, nil
}

// recordDecoder reads a binary payload — a record, a session or shard
// node, a turns chunk — front to back; the first thing it cannot
// read sets err, after which every read returns a zero value.
type recordDecoder struct {
	p   []byte
	err error
}

func (d *recordDecoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.p = nil
}

func (d *recordDecoder) byte(what string) byte {
	if len(d.p) == 0 {
		d.fail(fmt.Errorf("%s is cut short", what))
		return 0
	}
	b := d.p[0]
	d.p = d.p[1:]
	return b
}

// uvarint reads a canonical uvarint of at most limit.
func (d *recordDecoder) uvarint(what string, limit uint64) uint64 {
	v, rest, err := framelog.CutUvarint(d.p, what)
	if err == nil && v > limit {
		err = fmt.Errorf("%s %d is above %d", what, v, limit)
	}
	if err != nil {
		d.fail(err)
		return 0
	}
	d.p = rest
	return v
}

// end fails the decode when bytes remain after what, and returns its
// error.
func (d *recordDecoder) end(what string) error {
	if d.err == nil && len(d.p) > 0 {
		d.fail(fmt.Errorf("%d bytes after %s", len(d.p), what))
	}
	return d.err
}

// strings reads a uvarint count and that many strings. Each takes at
// least its length byte, so a count past the bytes left is refused
// before anything is sized by it.
func (d *recordDecoder) strings(what string) []string {
	n := d.uvarint(what+" count", uint64(len(d.p)))
	var out []string
	for i := uint64(0); i < n && d.err == nil; i++ {
		out = append(out, d.string(what))
	}
	return out
}

// string reads a length-prefixed string, which must be valid UTF-8.
func (d *recordDecoder) string(what string) string {
	s, rest, err := framelog.CutString(d.p, what)
	if err == nil && !utf8.ValidString(s) {
		err = fmt.Errorf("%s is not valid UTF-8", what)
	}
	if err != nil {
		d.fail(err)
		return ""
	}
	d.p = rest
	return s
}

// turn reads one turn, held to what appendTurnBytes writes: a system
// turn has intent code 0, and a user turn any other known code.
func (d *recordDecoder) turn() dialogue.Turn {
	flags := d.byte("turn flags")
	if flags&^turnKnownSet != 0 {
		d.fail(fmt.Errorf("turn flags %#x set unknown bits", flags))
	}
	var t dialogue.Turn
	code := d.byte("intent")
	switch {
	case int(code) >= len(intentCodes):
		d.fail(fmt.Errorf("unknown intent code %d", code))
	case flags&turnSystem != 0:
		t.Role = dialogue.RoleSystem
		if code != 0 {
			d.fail(fmt.Errorf("a system turn with intent code %d", code))
		}
	case code == 0:
		d.fail(errors.New("a user turn with no intent"))
	default:
		t.Intent = intentCodes[code]
	}
	t.Text = d.string("turn text")
	if flags&turnConf == 0 || d.err != nil {
		return t
	}
	if len(d.p) < 8 {
		d.fail(errors.New("turn confidence is cut short"))
		return t
	}
	t.Confidence = math.Float64frombits(binary.LittleEndian.Uint64(d.p))
	d.p = d.p[8:]
	if t.Confidence == 0 || math.IsNaN(t.Confidence) || math.IsInf(t.Confidence, 0) {
		d.fail(fmt.Errorf("stored turn confidence %v", t.Confidence))
	}
	return t
}

// decodeFrame validates one shipped replication frame — exactly one
// complete record frame, nothing before or after it — with framelog's
// scan.
func decodeFrame(data []byte) (walRecord, error) {
	payloads, valid := framelog.Scan(walMagic, data)
	if len(payloads) != 1 || valid != len(data) {
		return walRecord{}, errors.New("sessionstore: not one whole record frame")
	}
	return decodeRecord(payloads[0])
}
