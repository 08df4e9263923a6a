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
//	commit  0x04 · uvarint len(name) · name · uvarint turn · form · tree
//
// uvarint is binary.AppendUvarint's. A chunk may have no refs, and its
// data is its owner's bytes, empty for none: opaque to the store except
// for the kinds it owns (commit, leaf, table, db). An append record adds
// a commit chunk that precedes it to a root's log. A commit record is a
// new version in one frame: the commit chunk it stands for pins tree at
// turn, its parent is the root's head and its stamp the store's next, so
// the journal holds neither. Form 0 names a stored tree by its 32-byte
// address; form 1 carries the tree node itself, its chunk payload after
// the 0x01 tag — so the form byte and the rest are exactly that payload.
// A payload that opens with '{' is JSON, which stores up to
// jsonLastReader wrote, and one tagged 0x03 is a set record — "a root's
// log is now exactly this list" — which only the retention of stores up
// to setLastReader wrote: each is a *FormatError.
const (
	tagChunk  = 0x01
	tagAppend = 0x02
	tagSet    = 0x03
	tagCommit = 0x04

	treeStored = 0x00
	treeInline = tagChunk
)

// jsonLastReader names the last commit that reads a journal holding
// JSON payloads: column leaves and turns chunks in a JSON envelope, and
// JSON "log is exactly" records.
const jsonLastReader = `8992f61 (the last with JSON journal payloads)`

// setLastReader names the last commit that reads a journal holding set
// records.
const setLastReader = `7c56897 ("a version is one journal record")`

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

// commitPayload encodes the commit record that appends a version of root
// at turn pinning tree: node inline (form 1) when it is not nil — the
// tree's chunk payload, which checkInline must accept — else tree's
// address (form 0).
func commitPayload(root string, turn int, tree Hash, node []byte) ([]byte, error) {
	if turn < 0 {
		return nil, fmt.Errorf("vstore: encode commit record for %q: turn %d", root, turn)
	}
	p := make([]byte, 0, 2*binary.MaxVarintLen64+len(root)+1+max(addrLen, len(node)))
	p = append(p, tagCommit)
	p = binary.AppendUvarint(p, uint64(len(root)))
	p = append(p, root...)
	p = binary.AppendUvarint(p, uint64(turn))
	if node != nil {
		return append(p, node...), nil
	}
	p, err := appendAddr(append(p, treeStored), tree)
	if err != nil {
		return nil, fmt.Errorf("vstore: encode commit record for %q: %w", root, err)
	}
	return p, nil
}

// cutCommitHead reads a commit record's root name and turn, returning
// the rest: the form byte and the tree.
func cutCommitHead(p []byte) (name string, turn int, rest []byte, err error) {
	name, rest, err = framelog.CutString(p[1:], "root name")
	if err != nil {
		return "", 0, nil, err
	}
	t, rest, err := framelog.CutUvarint(rest, "commit turn")
	if err != nil {
		return "", 0, nil, err
	}
	if t > math.MaxInt {
		return "", 0, nil, fmt.Errorf("commit record turn %d overflows", t)
	}
	if len(rest) == 0 {
		return "", 0, nil, errors.New("commit record ends before its tree")
	}
	return name, int(t), rest, nil
}

// decodeChunk decodes a chunk payload after its tag. Its data aliases p.
func decodeChunk(p []byte) (chunkFields, error) {
	var f chunkFields
	kind, rest, err := framelog.CutString(p, "kind")
	if err != nil {
		return f, err
	}
	if kind == "" {
		return f, errors.New("binary chunk with an empty kind")
	}
	if f.R, rest, err = cutAddrs(rest, "ref"); err != nil {
		return f, err
	}
	f.K = kind
	if len(rest) > 0 {
		f.D = rest
	}
	return f, nil
}

// decodePayload decodes a journal payload: a chunk, or a root record
// (Root set; Version too for a commit record). It is refused unless it is
// the one encoding a writer produces for what it holds — every count
// canonical and backed by the bytes that follow it, a chunk with a kind,
// nothing after a root record's last address, a commit record's tree in
// form 0 or 1 and, inline, a node checkInline accepts — and each refusal
// comes before anything is sized by a count. A JSON payload or a set
// record is what older stores wrote, a *FormatError. A chunk's data, and
// a commit record's node, alias p.
func decodePayload(p []byte) (record, error) {
	var rec record
	if len(p) == 0 {
		return rec, errors.New("empty payload")
	}
	switch p[0] {
	case tagChunk:
		var err error
		rec.chunkFields, err = decodeChunk(p[1:])
		return rec, err
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
		return rec, &FormatError{Format: "a set root record", Reader: setLastReader}
	case tagCommit:
		name, turn, rest, err := cutCommitHead(p)
		if err != nil {
			return rec, err
		}
		v := &versionRecord{Turn: turn}
		switch rest[0] {
		case treeStored:
			if len(rest) != 1+addrLen {
				return rec, fmt.Errorf("commit record ends in a %d-byte tree address, want %d", len(rest)-1, addrLen)
			}
			v.Tree = Hash(hex.EncodeToString(rest[1:]))
		case treeInline:
			node, err := decodeChunk(rest[1:])
			if err != nil {
				return rec, fmt.Errorf("commit record's tree: %w", err)
			}
			if err := checkInline(node); err != nil {
				return rec, fmt.Errorf("commit record's tree %w", err)
			}
			v.Tree, v.Node, v.NodeRefs = hashBytes(rest), rest, node.R
		default:
			return rec, fmt.Errorf("commit record tree form %#x", rest[0])
		}
		rec.Root, rec.Version = &name, v
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
	return checkChunk(rec.chunkFields)
}

// checkInline holds a commit record's inline tree node to what a writer
// of this store puts there: a chunk checkChunk accepts that is neither a
// leaf nor a commit, the kinds no version pins as its tree.
func checkInline(f chunkFields) error {
	if f.K == "leaf" || f.K == "commit" {
		return fmt.Errorf("is a %s node, which no commit record carries", f.K)
	}
	return checkChunk(f)
}

// checkChunk requires the data of a kind this store owns to be what its
// decoder reads.
func checkChunk(f chunkFields) error {
	var err error
	switch f.K {
	case "commit":
		if len(f.R) != 1 {
			return fmt.Errorf("is a commit with %d refs, want 1", len(f.R))
		}
		_, _, _, err = decodeCommitData(f.D)
	case "leaf":
		if len(f.R) != 0 {
			return fmt.Errorf("is a leaf with %d refs", len(f.R))
		}
		_, err = parseLeaf(f.D)
	case "table":
		_, err = decodeTableData(f.D)
	case "db":
		_, err = decodeDBData(f.D)
	}
	if err != nil {
		return fmt.Errorf("has %s data its decoder refuses: %w", f.K, err)
	}
	return nil
}
