package vstore

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"

	"github.com/reliable-cda/cda/internal/framelog"
)

// The journal's payloads. A chunk that has refs, and a root record that
// appends a commit, are written binary, every address as its 32 raw
// bytes:
//
//	chunk   0x01 · uvarint len(kind) · kind · uvarint len(refs) · 32 bytes a ref · data
//	append  0x02 · uvarint len(name) · name · 32-byte commit
//
// uvarint is binary.AppendUvarint's, and data is the caller's JSON as
// given, empty for none. A chunk without refs — a column leaf, a turns
// chunk — keeps the JSON envelope {"k": kind, "d": data}: refs are what
// the binary form saves, and so such a chunk keeps the address it had
// when every chunk was JSON. The "log is exactly" record keeps its JSON
// {"root": name, "log": [hashes], "stamp": n}. The first byte tells the
// forms apart, since no JSON text begins with 0x01 or 0x02.
const (
	tagChunk  = 0x01
	tagAppend = 0x02
)

// addrLen is the length of an address in binary form.
const addrLen = sha256.Size

// isAddr reports whether h is an address as hashBytes spells one: 64
// lowercase hex digits.
func isAddr(h Hash) bool {
	if len(h) != 2*addrLen {
		return false
	}
	for i := 0; i < len(h); i++ {
		if c := h[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// appendAddr appends h's 32 raw bytes.
func appendAddr(p []byte, h Hash) ([]byte, error) {
	if !isAddr(h) {
		return nil, fmt.Errorf("vstore: %q is not an address", h)
	}
	var raw [addrLen]byte
	if _, err := hex.Decode(raw[:], []byte(h)); err != nil {
		return nil, fmt.Errorf("vstore: %q is not an address: %w", h, err)
	}
	return append(p, raw[:]...), nil
}

// appendChunk renders a binary chunk from parts the caller has checked.
func appendChunk(kind string, refs []Hash, data []byte) ([]byte, error) {
	p := make([]byte, 0, 1+2*binary.MaxVarintLen64+len(kind)+addrLen*len(refs)+len(data))
	p = append(p, tagChunk)
	p = binary.AppendUvarint(p, uint64(len(kind)))
	p = append(p, kind...)
	p = binary.AppendUvarint(p, uint64(len(refs)))
	for _, r := range refs {
		var err error
		if p, err = appendAddr(p, r); err != nil {
			return nil, err
		}
	}
	return append(p, data...), nil
}

// encodeEnvelope renders a chunk canonically: a chunk is a function of
// its kind, refs and data bytes, so equal chunks hash equally. data
// must be valid JSON or empty, in either form.
func encodeEnvelope(kind string, refs []Hash, data []byte) ([]byte, error) {
	if len(refs) == 0 {
		// json.Marshal of a struct is field-ordered.
		payload, err := json.Marshal(envelope{K: kind, D: data})
		if err != nil {
			return nil, fmt.Errorf("vstore: encode %s chunk: %w", kind, err)
		}
		return payload, nil
	}
	if kind == "" {
		return nil, errors.New("vstore: encode chunk: empty kind")
	}
	if len(data) > 0 && !json.Valid(data) {
		return nil, fmt.Errorf("vstore: encode %s chunk: data is not JSON", kind)
	}
	payload, err := appendChunk(kind, refs, data)
	if err != nil {
		return nil, fmt.Errorf("vstore: encode %s chunk: %w", kind, err)
	}
	return payload, nil
}

// appendPayload encodes the root record that appends commit to root's log.
func appendPayload(root string, commit Hash) ([]byte, error) {
	p := make([]byte, 0, 1+binary.MaxVarintLen64+len(root)+addrLen)
	p = append(p, tagAppend)
	p = binary.AppendUvarint(p, uint64(len(root)))
	p = append(p, root...)
	p, err := appendAddr(p, commit)
	if err != nil {
		return nil, fmt.Errorf("vstore: encode root record for %q: %w", root, err)
	}
	return p, nil
}

// decodePayload decodes a journal payload: a chunk, or a root record
// (Root set). A binary one is refused unless it is the one encoding a
// writer produces for what it holds — every count canonical and backed
// by the bytes that follow it, a chunk with a kind and refs, nothing
// after an append record's commit — and each refusal comes before
// anything is sized by a count. A JSON one must decode to one of the two
// JSON shapes written: a chunk with a kind and no refs, or a root record
// with no commit and nothing of a chunk. JSON that decodes to anything
// else — refs or an appended commit spelled in hex, no kind — is what
// older stores wrote, a *FormatError. A binary chunk's data aliases p.
func decodePayload(p []byte) (record, error) {
	var rec record
	if len(p) == 0 {
		return rec, errors.New("empty payload")
	}
	switch p[0] {
	case tagChunk:
		kind, rest, err := framelog.CutString(p[1:], "kind")
		if err != nil {
			return rec, err
		}
		if kind == "" {
			return rec, errors.New("binary chunk with an empty kind")
		}
		n, rest, err := framelog.CutUvarint(rest, "ref count")
		if err != nil {
			return rec, err
		}
		if n == 0 {
			return rec, errors.New("binary chunk with no refs")
		}
		if n > uint64(len(rest)/addrLen) {
			return rec, fmt.Errorf("binary chunk claims %d refs in %d bytes", n, len(rest))
		}
		rec.K, rec.R = kind, make([]Hash, n)
		for i := range rec.R {
			rec.R[i] = Hash(hex.EncodeToString(rest[:addrLen]))
			rest = rest[addrLen:]
		}
		if len(rest) > 0 {
			rec.D = rest
		}
		return rec, nil
	case tagAppend:
		name, rest, err := framelog.CutString(p[1:], "root name")
		if err != nil {
			return rec, err
		}
		if len(rest) != addrLen {
			return rec, fmt.Errorf("root record ends in %d bytes, want a %d-byte commit", len(rest), addrLen)
		}
		rec.Root, rec.Commit = &name, Hash(hex.EncodeToString(rest))
		return rec, nil
	}
	if err := json.Unmarshal(p, &rec); err != nil {
		return rec, err
	}
	switch {
	case rec.R != nil:
		return rec, &FormatError{Format: "a JSON chunk with refs"}
	case rec.Commit != "":
		return rec, &FormatError{Format: "a JSON append record"}
	case rec.Root != nil && (rec.K != "" || rec.D != nil):
		return rec, &FormatError{Format: "a JSON root record with a chunk's fields"}
	case rec.Root == nil && (rec.K == "" || rec.Log != nil || rec.Stamp != 0):
		return rec, &FormatError{Format: "a JSON chunk with no kind or a root record's fields"}
	}
	return rec, nil
}

// checkShipped holds a decoded packet to what a writer of this store
// produces for a chunk, beyond what the journal scan asks of a payload:
// a binary chunk's data is JSON, and a root record is no chunk at all —
// stored as one, it would replay as a root update.
func checkShipped(p []byte, rec record) error {
	switch {
	case rec.Root != nil:
		return errors.New("is a root record, not a chunk")
	case p[0] == tagChunk && len(rec.D) > 0 && !json.Valid(rec.D):
		return errors.New("has data that is not JSON")
	}
	return nil
}
