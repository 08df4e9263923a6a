package vstore

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"slices"

	"github.com/reliable-cda/cda/internal/framelog"
)

// The journal's payloads, each binary:
//
//	chunk   0x01 · uvarint len(kind) · kind · uvarint len(refs) · 32 bytes a ref · data
//	back    0x06 · uvarint len(kind) · kind · uvarint len(refs) · uvarint distance a ref · data
//	append  0x02 · uvarint len(name) · name · 32-byte commit
//	commit  0x04 · uvarint len(name) · name · uvarint turn · form · tree
//	mark    0x05 · uvarint len(name) · name
//
// uvarint is binary.AppendUvarint's. A chunk may have no refs, and its
// data is its owner's bytes, empty for none: opaque to the store except
// for the kinds it owns (commit, leaf, table, db). A chunk frame is the
// chunk's canonical payload, the bytes its address hashes and PacketOf
// ships, or its back form: the journal numbers the chunks it holds in
// the order it took them — a frame, a commit record's tree node, then
// the commit it stands for — and a chunk with at least one ref, every
// one of them to a chunk earlier in that order, spells each ref as its
// distance back, 1 for the chunk just before it. The journal scan
// resolves the distances and renders the canonical payload; a chunk with
// a ref the journal has not passed, a forward ref, is framed canonically.
// An append record adds a commit chunk that precedes it to a root's log.
// A commit record is a new version in one frame: the commit chunk it
// stands for pins tree at turn, its parent is the root's head and its
// stamp the store's next, so the journal holds neither. Form 0 names a
// stored tree by its 32-byte address; form 1 carries the tree node
// itself, its chunk payload after the 0x01 tag — so the form byte and
// the rest are exactly that payload — and form 6 the node's back form
// the same way, its distances counted from the node. A mark record notes
// its root at its place in the journal and changes no root log. A
// payload that opens with '{' is JSON, which stores up to jsonLastReader
// wrote, and one tagged 0x03 is a set record — "a root's log is now
// exactly this list" — which only the retention of stores up to
// setLastReader wrote: each is a *FormatError.
const (
	tagChunk  = 0x01
	tagAppend = 0x02
	tagSet    = 0x03
	tagCommit = 0x04
	tagMark   = 0x05
	tagBack   = 0x06

	treeStored = 0x00
	treeInline = tagChunk
	treeBack   = tagBack
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

// appendAddr appends h's 32 raw bytes, refusing an h isAddr refuses.
func appendAddr(p []byte, h Hash) ([]byte, error) {
	if !isAddr(h) {
		return nil, fmt.Errorf("vstore: %q is not an address", h)
	}
	return hex.AppendDecode(p, []byte(h))
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

// cutDists reads a back form's ref count and distances from the front
// of b: at least one ref, each distance a canonical uvarint of at least
// 1, and a count the bytes after it can hold, refused before anything is
// sized by it.
func cutDists(b []byte) ([]uint64, []byte, error) {
	n, rest, err := framelog.CutUvarint(b, "ref count")
	switch {
	case err != nil:
		return nil, nil, err
	case n == 0:
		return nil, nil, errors.New("back-form chunk with no refs")
	case n > uint64(len(rest)):
		return nil, nil, fmt.Errorf("binary payload claims %d ref distances in %d bytes", n, len(rest))
	}
	ds := make([]uint64, n)
	for i := range ds {
		if ds[i], rest, err = framelog.CutUvarint(rest, "ref distance"); err != nil {
			return nil, nil, err
		}
		if ds[i] == 0 {
			return nil, nil, errors.New("ref at distance 0")
		}
	}
	return ds, rest, nil
}

// appendChunk renders a chunk canonically: a chunk is a function of its
// kind, refs and data bytes, so equal chunks hash equally.
func appendChunk(kind string, refs []Hash, data []byte) ([]byte, error) {
	return renderChunk(nil, kind, refs, data)
}

// renderChunk is appendChunk into p's storage, which it grows as needed.
func renderChunk(p []byte, kind string, refs []Hash, data []byte) ([]byte, error) {
	if kind == "" {
		return nil, errors.New("vstore: encode chunk: empty kind")
	}
	p = slices.Grow(p[:0], 1+2*binary.MaxVarintLen64+len(kind)+addrLen*len(refs)+len(data))
	p = append(p, tagChunk)
	p = binary.AppendUvarint(p, uint64(len(kind)))
	p = append(p, kind...)
	p, err := appendAddrs(p, refs)
	if err != nil {
		return nil, fmt.Errorf("vstore: encode %s chunk: %w", kind, err)
	}
	return append(p, data...), nil
}

// appendBack renders a chunk's back form: its refs as dists, each one's
// distance back in the journal's chunk order.
func appendBack(kind string, dists []uint64, data []byte) []byte {
	p := make([]byte, 0, 1+2*binary.MaxVarintLen64+len(kind)+3*len(dists)+len(data))
	p = append(p, tagBack)
	p = binary.AppendUvarint(p, uint64(len(kind)))
	p = append(p, kind...)
	p = binary.AppendUvarint(p, uint64(len(dists)))
	for _, d := range dists {
		p = binary.AppendUvarint(p, d)
	}
	return append(p, data...)
}

// backForm renders the canonical chunk payload p in the back form, its
// refs dists back.
func backForm(p []byte, dists []uint64) ([]byte, error) {
	kind, rest, err := framelog.CutString(p[1:], "kind")
	if err != nil {
		return nil, err
	}
	if _, rest, err = framelog.CutUvarint(rest, "ref count"); err != nil {
		return nil, err
	}
	return appendBack(kind, dists, rest[addrLen*len(dists):]), nil
}

// backDists are the distances back from place at in the journal's chunk
// order to each of refs, which placeOf places in it, and whether the
// back form can spell them: refs is not empty and each lies before at.
func backDists(refs []Hash, at int64, placeOf func(Hash) (int64, bool)) ([]uint64, bool) {
	if len(refs) == 0 {
		return nil, false
	}
	ds := make([]uint64, len(refs))
	for i, r := range refs {
		place, ok := placeOf(r)
		if !ok || place >= at {
			return nil, false
		}
		ds[i] = uint64(at - place)
	}
	return ds, true
}

// resolveBack names the refs of the chunk that takes the next place in
// the journal's chunk order, order, from its back form's distances. A
// distance past the first chunk is an error.
func resolveBack(order []Hash, dists []uint64) ([]Hash, error) {
	refs := make([]Hash, len(dists))
	for i, d := range dists {
		if d > uint64(len(order)) {
			return nil, fmt.Errorf("ref %d chunks back from chunk %d reaches before the journal's first", d, len(order))
		}
		refs[i] = order[uint64(len(order))-d]
	}
	return refs, nil
}

// renderBack renders the canonical payload of the back-form chunk whose
// body, after its tag, is p and whose refs the index holds.
func renderBack(p []byte, refs []Hash) ([]byte, error) {
	f, err := decodeChunk(tagBack, p)
	if err != nil {
		return nil, err
	}
	if len(f.B) != len(refs) {
		return nil, fmt.Errorf("the back form spells %d refs, the index holds %d", len(f.B), len(refs))
	}
	return appendChunk(f.K, refs, f.D)
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

// markPayload encodes the mark record on root.
func markPayload(root string) ([]byte, error) {
	if root == "" {
		return nil, errors.New("vstore: encode mark record: empty root name")
	}
	p := binary.AppendUvarint([]byte{tagMark}, uint64(len(root)))
	return append(p, root...), nil
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

// decodeChunk decodes a chunk payload after its tag, which says its
// form: canonical, or the back form, whose refs it leaves as distances
// (B) for the journal scan to resolve. Its data aliases p.
func decodeChunk(tag byte, p []byte) (chunkFields, error) {
	var f chunkFields
	kind, rest, err := framelog.CutString(p, "kind")
	if err != nil {
		return f, err
	}
	if kind == "" {
		return f, errors.New("binary chunk with an empty kind")
	}
	if tag == tagBack {
		f.B, rest, err = cutDists(rest)
	} else {
		f.R, rest, err = cutAddrs(rest, "ref")
	}
	if err != nil {
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
// a back form with a ref and no distance of 0, nothing after a root
// record's last address, a commit record's tree in form 0, 1 or 6 and,
// inline, a node checkInline accepts — and each refusal comes before
// anything is sized by a count. A back form's distances are left for the
// journal scan to resolve: only it knows the chunks before the frame. A
// JSON payload or a set record is what older stores wrote, a
// *FormatError. A chunk's data, and a commit record's node, alias p.
func decodePayload(p []byte) (record, error) {
	var rec record
	if len(p) == 0 {
		return rec, errors.New("empty payload")
	}
	switch p[0] {
	case tagChunk, tagBack:
		var err error
		rec.chunkFields, err = decodeChunk(p[0], p[1:])
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
	case tagMark:
		name, rest, err := framelog.CutString(p[1:], "root name")
		if err != nil {
			return rec, err
		}
		switch {
		case name == "":
			return rec, errors.New("mark record on no root")
		case len(rest) != 0:
			return rec, fmt.Errorf("%d bytes after a mark record", len(rest))
		}
		rec.Root, rec.Mark = &name, true
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
		case treeInline, treeBack:
			node, err := decodeChunk(rest[0], rest[1:])
			if err != nil {
				return rec, fmt.Errorf("commit record's tree: %w", err)
			}
			if err := checkInline(node); err != nil {
				return rec, fmt.Errorf("commit record's tree %w", err)
			}
			v.Node, v.Inline = rest, node
			if rest[0] == treeInline {
				v.Tree = hashBytes(rest)
			}
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
// root update — a packet is the canonical payload its address hashes,
// never the journal's back form, and the data of a kind this store owns
// must be what its decoder reads. Other kinds' data is their owner's to
// refuse.
func checkShipped(rec record) error {
	switch {
	case rec.Root != nil:
		return errors.New("is a root record, not a chunk")
	case rec.B != nil:
		return errors.New("is a chunk in the journal's back form, which no packet carries")
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
// decoder reads. It reads a chunk's kind, ref count and data, all of
// which a back form spells, so the chunk its refs render gets the same
// answer.
func checkChunk(f chunkFields) error {
	var err error
	refs := len(f.R) + len(f.B)
	switch f.K {
	case "commit":
		if refs != 1 {
			return fmt.Errorf("is a commit with %d refs, want 1", refs)
		}
		_, _, _, err = decodeCommitData(f.D)
	case "leaf":
		if refs != 0 {
			return fmt.Errorf("is a leaf with %d refs", refs)
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
