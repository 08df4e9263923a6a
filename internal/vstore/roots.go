package vstore

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"sort"

	"github.com/reliable-cda/cda/internal/framelog"
)

// A commit chunk's data is
//
//	flags · [32-byte parent, when flags is 1] · uvarint turn · uvarint stamp
//
// flags is 0 for a root's first commit and 1 after it. The parent lives
// here (data, not refs) on purpose: a commit's ref closure is exactly
// one version, so shipping a version never drags history behind it.
const commitHasParent = 1

// appendCommitData renders a commit chunk's data.
func appendCommitData(parent Hash, turn int, stamp int64) ([]byte, error) {
	if turn < 0 || stamp < 0 {
		return nil, fmt.Errorf("commit at turn %d, stamp %d", turn, stamp)
	}
	p := make([]byte, 0, 1+addrLen+2*binary.MaxVarintLen64)
	if parent == "" {
		p = append(p, 0)
	} else {
		var err error
		if p, err = appendAddr(append(p, commitHasParent), parent); err != nil {
			return nil, err
		}
	}
	p = binary.AppendUvarint(p, uint64(turn))
	return binary.AppendUvarint(p, uint64(stamp)), nil
}

// decodeCommitData reads what appendCommitData writes and nothing else:
// an unknown flag, a count out of range or a byte after the stamp is an
// error.
func decodeCommitData(d []byte) (parent Hash, turn int, stamp int64, err error) {
	if len(d) == 0 {
		return "", 0, 0, errors.New("commit data is empty")
	}
	flags, rest := d[0], d[1:]
	switch flags {
	case 0:
	case commitHasParent:
		if len(rest) < addrLen {
			return "", 0, 0, errors.New("commit parent is cut short")
		}
		parent, rest = Hash(hex.EncodeToString(rest[:addrLen])), rest[addrLen:]
	default:
		return "", 0, 0, fmt.Errorf("commit flags %#x", flags)
	}
	t, rest, err := framelog.CutUvarint(rest, "commit turn")
	if err != nil {
		return "", 0, 0, err
	}
	st, rest, err := framelog.CutUvarint(rest, "commit stamp")
	if err != nil {
		return "", 0, 0, err
	}
	switch {
	case t > math.MaxInt:
		return "", 0, 0, fmt.Errorf("commit turn %d overflows", t)
	case st > math.MaxInt64:
		return "", 0, 0, fmt.Errorf("commit stamp %d overflows", st)
	case len(rest) > 0:
		return "", 0, 0, fmt.Errorf("%d bytes after a commit's stamp", len(rest))
	}
	return parent, int(t), int64(st), nil
}

// commitChunk renders the commit chunk that pins tree at turn and stamp
// on parent, and its address.
func commitChunk(tree, parent Hash, turn int, stamp int64) (Hash, []byte, error) {
	data, err := appendCommitData(parent, turn, stamp)
	if err != nil {
		return "", nil, err
	}
	payload, err := appendChunk("commit", []Hash{tree}, data)
	if err != nil {
		return "", nil, err
	}
	return hashBytes(payload), payload, nil
}

// nextCommit is the commit that appends tree at turn on parent (nil
// for a root's first) at stamp, and its chunk payload. A commit record
// spells only root, turn and tree, so the writer and the journal scan
// both derive the rest here.
func nextCommit(parent *Commit, tree Hash, turn int, stamp int64) (Commit, []byte, error) {
	c := Commit{Tree: tree, Turn: turn, Stamp: stamp}
	if parent != nil {
		c.Parent = parent.Hash
	}
	var payload []byte
	var err error
	c.Hash, payload, err = commitChunk(tree, c.Parent, turn, c.Stamp)
	return c, payload, err
}

// replayCommitLocked applies the commit record v for root that the
// journal scan found at off, n bytes long: its inline tree node — in the
// back form, its refs resolved and its address that of the canonical
// payload they render — or the stored one it names, and the commit it
// stands for — on the root's head, at the store's next stamp, as the
// writer's was — enter the index at the record, in that order, the
// commit payload joins the scan's commits, and the root's log and the
// events take the commit. A stored tree the scan has not passed is an
// error, and so is a distance past the first chunk. Caller holds s.mu
// exclusively.
func (s *Store) replayCommitLocked(r *replay, root string, v *versionRecord, off int64, n int) error {
	if v.Node != nil && v.Tree == "" {
		canonical, err := r.canonical(v.Node, &v.Inline)
		if err != nil {
			return err
		}
		v.Tree = hashBytes(canonical)
	}
	if _, ok := s.chunks[v.Tree]; !ok && v.Node == nil {
		return fmt.Errorf("vstore: commit record for %q names tree %s, which no frame before it holds", root, v.Tree)
	}
	var parent *Commit
	if head, ok := s.tipLocked(root); ok {
		parent = &head
	}
	c, payload, err := nextCommit(parent, v.Tree, v.Turn, s.stamp+1)
	if err != nil {
		return err
	}
	if v.Node != nil {
		s.indexLocked(r, v.Tree, &chunk{off: off, n: n, refs: v.Inline.R, host: recordTree})
	}
	s.indexLocked(r, c.Hash, &chunk{off: off, n: n, refs: []Hash{v.Tree}, host: recordCommit, commit: &c})
	r.commits[c.Hash] = payload
	s.appendEntryLocked(root, c)
	s.events = append(s.events, Event{Root: root, Commit: c})
	return nil
}

// commitEntry rebuilds a root-log entry from its commit chunk's payload —
// the journal's append records and shipped commits carry only the hash.
// A chunk that is no commit a writer produces is a *MalformedChunkError.
func commitEntry(h Hash, payload []byte) (Commit, error) {
	env, err := decodePayload(payload)
	if err != nil {
		return Commit{}, fmt.Errorf("vstore: decode chunk %s: %w", h, err)
	}
	if env.Root != nil || env.K != "commit" || len(env.R) != 1 {
		return Commit{}, malformed(h, "is %q with %d refs, want a commit with 1", env.K, len(env.R))
	}
	parent, turn, stamp, err := decodeCommitData(env.D)
	if err != nil {
		return Commit{}, malformed(h, "decode commit data: %w", err)
	}
	return Commit{Hash: h, Tree: env.R[0], Parent: parent, Turn: turn, Stamp: stamp}, nil
}

// CommitOf reads commit chunk h as the root-log entry it makes.
func (s *Store) CommitOf(h Hash) (Commit, error) {
	s.mu.RLock()
	p, err := s.payloadLocked(h)
	s.mu.RUnlock()
	if err != nil {
		return Commit{}, err
	}
	return commitEntry(h, p)
}

// adoptionLocked is the log entry that adopting commit chunk h makes,
// and the append record that journals it. Caller holds s.mu.
func (s *Store) adoptionLocked(root string, h Hash) (Commit, []byte, error) {
	if err := s.checkTreeLocked(h); err != nil {
		return Commit{}, nil, err
	}
	p, err := s.payloadLocked(h)
	if err != nil {
		return Commit{}, nil, err
	}
	c, err := commitEntry(h, p)
	if err != nil {
		return Commit{}, nil, err
	}
	rec, err := appendPayload(root, h)
	return c, rec, err
}

// checkTreeLocked requires commit chunk h to pin a stored tree that is
// neither a leaf nor a commit. Caller holds s.mu.
func (s *Store) checkTreeLocked(h Hash) error {
	p, err := s.payloadLocked(h)
	if err != nil {
		return err
	}
	c, err := commitEntry(h, p)
	if err != nil {
		return err
	}
	if p, err = s.payloadLocked(c.Tree); errors.Is(err, ErrUnknownChunk) {
		return malformed(h, "pins tree %s: %w", c.Tree, ErrUnknownChunk)
	} else if err != nil {
		return err
	}
	env, err := decodePayload(p)
	if err != nil {
		return fmt.Errorf("vstore: decode chunk %s: %w", c.Tree, err)
	}
	if env.K == "leaf" || env.K == "commit" {
		return malformed(h, "pins %s %s, want a tree", env.K, c.Tree)
	}
	return nil
}

// Head returns the latest commit on a root.
func (s *Store) Head(root string) (Commit, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	log := s.roots[root]
	if len(log) == 0 {
		return Commit{}, fmt.Errorf("%w: %q", ErrUnknownRoot, root)
	}
	return log[len(log)-1], nil
}

// Log returns a root's full commit log, oldest first.
func (s *Store) Log(root string) ([]Commit, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	log := s.roots[root]
	if len(log) == 0 {
		return nil, fmt.Errorf("%w: %q", ErrUnknownRoot, root)
	}
	return append([]Commit(nil), log...), nil
}

// Roots lists the root names, sorted.
func (s *Store) Roots() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.roots))
	for name := range s.roots {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// AsOf resolves the latest commit on a root whose Turn is <= turn —
// "the version the system saw at turn N". Commits are appended with
// non-decreasing turns, so this is the last matching log entry.
func (s *Store) AsOf(root string, turn int) (Commit, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	log := s.roots[root]
	if len(log) == 0 {
		return Commit{}, fmt.Errorf("%w: %q", ErrUnknownRoot, root)
	}
	for i := len(log) - 1; i >= 0; i-- {
		if log[i].Turn <= turn {
			return log[i], nil
		}
	}
	return Commit{}, fmt.Errorf("vstore: root %q has no commit at or before turn %d", root, turn)
}
