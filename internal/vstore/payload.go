package vstore

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"

	"github.com/reliable-cda/cda/internal/framelog"
)

// The journal's payloads, each binary, every address its 32 raw bytes:
//
//	chunk   0x01 · uvarint len(kind) · kind · uvarint len(refs) · 32 bytes a ref · data
//	append  0x02 · uvarint len(name) · name · 32-byte commit
//	set     0x03 · uvarint len(name) · name · uvarint stamp · uvarint len(log) · 32 bytes a commit
//
// uvarint is binary.AppendUvarint's. A chunk may have no refs, and its
// data is its owner's bytes, empty for none: opaque to the store except
// for the kinds it owns (commit, leaf, table, db). An append record adds
// a commit to a root's log; a set record says the log is now exactly
// that list (empty: the root is gone) and carries the store-wide stamp.
// A payload that opens with '{' is JSON, which stores up to
// jsonLastReader wrote: a *FormatError.
const (
	tagChunk  = 0x01
	tagAppend = 0x02
	tagSet    = 0x03
)

// jsonLastReader names the last commit that reads a journal holding
// JSON payloads: column leaves and turns chunks in a JSON envelope, and
// JSON "log is exactly" records.
const jsonLastReader = `8992f61 (the last with JSON journal payloads)`

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

// appendAddrs appends a uvarint count and each address.
func appendAddrs(p []byte, hs []Hash) ([]byte, error) {
	p = binary.AppendUvarint(p, uint64(len(hs)))
	for _, h := range hs {
		var err error
		if p, err = appendAddr(p, h); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// cutAddrs reads what appendAddrs wrote from the front of b, refusing a
// count the bytes after it cannot hold before anything is sized by it.
func cutAddrs(b []byte, what string) ([]Hash, []byte, error) {
	n, rest, err := framelog.CutUvarint(b, what+" count")
	if err != nil {
		return nil, nil, err
	}
	if n > uint64(len(rest)/addrLen) {
		return nil, nil, fmt.Errorf("binary payload claims %d %ss in %d bytes", n, what, len(rest))
	}
	hs := make([]Hash, n)
	for i := range hs {
		hs[i] = Hash(hex.EncodeToString(rest[:addrLen]))
		rest = rest[addrLen:]
	}
	return hs, rest, nil
}

// appendChunk renders a chunk canonically: a chunk is a function of its
// kind, refs and data bytes, so equal chunks hash equally.
func appendChunk(kind string, refs []Hash, data []byte) ([]byte, error) {
	if kind == "" {
		return nil, errors.New("vstore: encode chunk: empty kind")
	}
	p := make([]byte, 0, 1+2*binary.MaxVarintLen64+len(kind)+addrLen*len(refs)+len(data))
	p = append(p, tagChunk)
	p = binary.AppendUvarint(p, uint64(len(kind)))
	p = append(p, kind...)
	p, err := appendAddrs(p, refs)
	if err != nil {
		return nil, fmt.Errorf("vstore: encode %s chunk: %w", kind, err)
	}
	return append(p, data...), nil
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

// setPayload encodes the root record that makes root's log exactly log,
// at the store-wide stamp.
func setPayload(root string, log []Hash, stamp int64) ([]byte, error) {
	if stamp < 0 {
		return nil, fmt.Errorf("vstore: encode root record for %q: stamp %d", root, stamp)
	}
	p := make([]byte, 0, 1+3*binary.MaxVarintLen64+len(root)+addrLen*len(log))
	p = append(p, tagSet)
	p = binary.AppendUvarint(p, uint64(len(root)))
	p = append(p, root...)
	p = binary.AppendUvarint(p, uint64(stamp))
	p, err := appendAddrs(p, log)
	if err != nil {
		return nil, fmt.Errorf("vstore: encode root record for %q: %w", root, err)
	}
	return p, nil
}

// decodePayload decodes a journal payload: a chunk, or a root record
// (Root set). It is refused unless it is the one encoding a writer
// produces for what it holds — every count canonical and backed by the
// bytes that follow it, a chunk with a kind, nothing after a root
// record's last address — and each refusal comes before anything is
// sized by a count. A JSON payload is what older stores wrote, a
// *FormatError. A chunk's data aliases p.
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
		if rec.R, rest, err = cutAddrs(rest, "ref"); err != nil {
			return rec, err
		}
		rec.K = kind
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
	case tagSet:
		name, rest, err := framelog.CutString(p[1:], "root name")
		if err != nil {
			return rec, err
		}
		stamp, rest, err := framelog.CutUvarint(rest, "stamp")
		if err != nil {
			return rec, err
		}
		if stamp > math.MaxInt64 {
			return rec, fmt.Errorf("root record stamp %d overflows", stamp)
		}
		if rec.Log, rest, err = cutAddrs(rest, "commit"); err != nil {
			return rec, err
		}
		if len(rest) > 0 {
			return rec, fmt.Errorf("%d bytes after a root record's log", len(rest))
		}
		rec.Root, rec.Stamp = &name, int64(stamp)
		return rec, nil
	case '{':
		return rec, &FormatError{Format: "a JSON journal payload", Reader: jsonLastReader}
	}
	return rec, fmt.Errorf("unknown payload tag %#x", p[0])
}

// checkShipped holds a decoded packet to what a writer of this store
// produces for a chunk, beyond what the journal scan asks of a payload:
// a root record is no chunk at all — stored as one, it would replay as a
// root update — and the data of a kind this store owns must be what its
// decoder reads. Other kinds' data is their owner's to refuse.
func checkShipped(rec record) error {
	if rec.Root != nil {
		return errors.New("is a root record, not a chunk")
	}
	var err error
	switch rec.K {
	case "commit":
		if len(rec.R) != 1 {
			return fmt.Errorf("is a commit with %d refs, want 1", len(rec.R))
		}
		_, _, _, err = decodeCommitData(rec.D)
	case "leaf":
		if len(rec.R) != 0 {
			return fmt.Errorf("is a leaf with %d refs", len(rec.R))
		}
		_, err = parseLeaf(rec.D)
	case "table":
		_, err = decodeTableData(rec.D)
	case "db":
		_, err = decodeDBData(rec.D)
	}
	if err != nil {
		return fmt.Errorf("has %s data its decoder refuses: %w", rec.K, err)
	}
	return nil
}
