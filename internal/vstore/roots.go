package vstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
)

// commitData is the data field of a commit chunk. The parent lives
// here (data, not refs) on purpose: a commit's ref closure is exactly
// one version, so shipping a version never drags history behind it.
type commitData struct {
	Parent Hash  `json:"parent,omitempty"`
	Turn   int   `json:"turn"`
	Stamp  int64 `json:"stamp"`
}

// Commit appends a new version to the named root, pinning tree (which
// must already be stored): a batch with nothing staged.
func (s *Store) Commit(root string, tree Hash, turn int) (Commit, error) {
	return s.NewBatch().Commit(root, tree, turn)
}

// commitEntry rebuilds a root-log entry from its commit chunk's payload —
// the journal's root records and shipped commits carry only the hash.
func commitEntry(h Hash, payload []byte) (Commit, error) {
	env, err := decodePayload(payload)
	if err != nil {
		return Commit{}, fmt.Errorf("vstore: decode chunk %s: %w", h, err)
	}
	if env.Root != nil || env.K != "commit" || len(env.R) != 1 {
		return Commit{}, fmt.Errorf("vstore: chunk %s is %q with %d refs, want a commit with 1", h, env.K, len(env.R))
	}
	var data commitData
	if err := json.Unmarshal(env.D, &data); err != nil {
		return Commit{}, fmt.Errorf("vstore: decode commit chunk %s data: %w", h, err)
	}
	return Commit{Hash: h, Tree: env.R[0], Parent: data.Parent, Turn: data.Turn, Stamp: data.Stamp}, nil
}

// rootPayload encodes a "log is exactly" record, which stays JSON.
func rootPayload(r rootRecord) ([]byte, error) {
	payload, err := json.Marshal(r)
	if err != nil {
		return nil, fmt.Errorf("vstore: encode root record for %q: %w", *r.Root, err)
	}
	return payload, nil
}

// setRecord is the record that makes root's log exactly log.
func setRecord(root string, log []Commit, stamp int64) rootRecord {
	r := rootRecord{Root: &root, Stamp: stamp}
	for _, c := range log {
		r.Log = append(r.Log, c.Hash)
	}
	return r
}

// applyRootLocked applies one root record: it rebuilds the log entries
// from the commit chunks the record names — read from the store, or,
// when Open's replay passes the commit payloads its scan has passed,
// from scanned (failing if either lacks one) — journals the record
// unless the journal already holds it, and only then changes the root's
// log and lifts the store-wide stamp past the commits it now lists.
// Caller holds s.mu exclusively.
func (s *Store) applyRootLocked(r rootRecord, journalled bool, scanned map[Hash][]byte) error {
	hashes, stamp := r.Log, r.Stamp
	var log []Commit
	if r.Commit != "" {
		hashes, log = []Hash{r.Commit}, s.roots[*r.Root]
	}
	for _, h := range hashes {
		p := scanned[h]
		if scanned == nil {
			var err error
			if p, err = s.payloadLocked(h); err != nil {
				return err
			}
		}
		c, err := commitEntry(h, p)
		if err != nil {
			return err
		}
		if c.Stamp > stamp {
			stamp = c.Stamp
		}
		log = append(log, c)
	}
	if !journalled {
		var rec []byte
		var err error
		if r.Commit != "" {
			rec, err = appendPayload(*r.Root, r.Commit)
		} else {
			rec, err = rootPayload(r)
		}
		if err != nil {
			return err
		}
		if _, err := s.appendPack(true, rec); err != nil {
			return err
		}
	}
	if len(log) == 0 {
		delete(s.roots, *r.Root)
	} else {
		s.roots[*r.Root] = log
	}
	if stamp > s.stamp {
		s.stamp = stamp
	}
	return nil
}

// AdoptCommit appends an existing commit chunk — typically shipped
// from another store — to the named root, preserving the commit's
// identity (hash, turn, stamp) so the two stores agree on version
// addresses. The chunk and its tree must already be present (ship
// chunks first, adopt after), and the tree must be neither a leaf nor
// another commit: a commit that fails that is refused, naming it, and
// leaves the store as it was. Adopting the current head again is a
// no-op.
func (s *Store) AdoptCommit(root string, h Hash) (Commit, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if log := s.roots[root]; len(log) == 0 || log[len(log)-1].Hash != h {
		err := s.checkTreeLocked(h)
		if err == nil {
			err = s.applyRootLocked(rootRecord{Root: &root, Commit: h}, false, nil)
		}
		if err != nil {
			return Commit{}, fmt.Errorf("vstore: adopt into %q: %w", root, err)
		}
	}
	log := s.roots[root]
	return log[len(log)-1], nil
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
	return s.rootNamesLocked()
}

// rootNamesLocked lists the root names, sorted. Caller holds s.mu
// (either mode).
func (s *Store) rootNamesLocked() []string {
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

// DeleteRoot drops a root's log (its chunks become GC candidates) and
// durably records the change.
func (s *Store) DeleteRoot(root string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.roots[root]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownRoot, root)
	}
	return s.applyRootLocked(setRecord(root, nil, s.stamp), false, nil)
}

// TruncateLog keeps only the last keep commits of a root (retention
// for long-lived session roots); the trimmed commits' chunks become
// GC candidates unless shared.
func (s *Store) TruncateLog(root string, keep int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	log := s.roots[root]
	if len(log) == 0 {
		return fmt.Errorf("%w: %q", ErrUnknownRoot, root)
	}
	if keep < 1 {
		keep = 1
	}
	if len(log) <= keep {
		return nil
	}
	return s.applyRootLocked(setRecord(root, log[len(log)-keep:], s.stamp), false, nil)
}
