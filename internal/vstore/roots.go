package vstore

import (
	"encoding/json"
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
// must already be stored). It writes a commit chunk and durably
// publishes the updated root log, returning the new commit.
func (s *Store) Commit(root string, tree Hash, turn int) (Commit, error) {
	if s.cfg.Faults != nil {
		if err := s.cfg.Faults.Inject("vstore.commit"); err != nil {
			return Commit{}, err
		}
	}
	if !s.Has(tree) {
		return Commit{}, fmt.Errorf("vstore: commit %q: tree %w: %s", root, ErrUnknownChunk, tree)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var parent Hash
	if log := s.roots[root]; len(log) > 0 {
		last := log[len(log)-1]
		if last.Tree == tree && last.Turn == turn {
			// Idempotent re-commit (recovery replay, batch re-apply):
			// the head already pins this exact state.
			return last, nil
		}
		parent = last.Hash
	}
	stamp := s.stamp + 1
	data, err := json.Marshal(commitData{Parent: parent, Turn: turn, Stamp: stamp})
	if err != nil {
		return Commit{}, fmt.Errorf("vstore: encode commit for %q: %w", root, err)
	}
	payload, err := encodeEnvelope("commit", []Hash{tree}, data)
	if err != nil {
		return Commit{}, err
	}
	h := hashBytes(payload)
	if c, ok := s.chunks[h]; ok {
		c.epoch = s.epoch
	} else {
		if err := s.appendPack(payload); err != nil {
			return Commit{}, err
		}
		s.chunks[h] = &chunk{data: payload, refs: []Hash{tree}, epoch: s.epoch}
	}
	c := Commit{Hash: h, Tree: tree, Parent: parent, Turn: turn, Stamp: stamp}
	s.roots[root] = append(s.roots[root], c)
	s.stamp = stamp
	if err := s.publishRoots(); err != nil {
		// Roll back the in-memory log so memory and disk agree; the
		// commit chunk stays in the pack as a GC-able orphan.
		s.roots[root] = s.roots[root][:len(s.roots[root])-1]
		if len(s.roots[root]) == 0 {
			delete(s.roots, root)
		}
		s.stamp = stamp - 1
		return Commit{}, err
	}
	return c, nil
}

// AdoptCommit appends an existing commit chunk — typically shipped
// from another store — to the named root, preserving the commit's
// identity (hash, turn, stamp) so the two stores agree on version
// addresses. The chunk and its tree must already be present (ship
// chunks first, adopt after). Adopting the current head again is a
// no-op.
func (s *Store) AdoptCommit(root string, h Hash) (Commit, error) {
	var data commitData
	kind, err := s.Data(h, &data)
	if err != nil {
		return Commit{}, err
	}
	if kind != "commit" {
		return Commit{}, fmt.Errorf("vstore: adopt %s into %q: chunk is %q, want commit", h, root, kind)
	}
	refs, err := s.Refs(h)
	if err != nil {
		return Commit{}, err
	}
	if len(refs) != 1 {
		return Commit{}, fmt.Errorf("vstore: adopt %s: commit has %d refs, want 1", h, len(refs))
	}
	c := Commit{Hash: h, Tree: refs[0], Parent: data.Parent, Turn: data.Turn, Stamp: data.Stamp}
	s.mu.Lock()
	defer s.mu.Unlock()
	if log := s.roots[root]; len(log) > 0 && log[len(log)-1].Hash == h {
		return log[len(log)-1], nil
	}
	s.roots[root] = append(s.roots[root], c)
	savedStamp := s.stamp
	if c.Stamp > s.stamp {
		// Keep the local stamp sequence monotone past adopted commits.
		s.stamp = c.Stamp
	}
	if err := s.publishRoots(); err != nil {
		s.roots[root] = s.roots[root][:len(s.roots[root])-1]
		if len(s.roots[root]) == 0 {
			delete(s.roots, root)
		}
		s.stamp = savedStamp
		return Commit{}, err
	}
	return c, nil
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

// CommitByHash finds a commit entry anywhere in the root logs.
func (s *Store) CommitByHash(h Hash) (Commit, string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.roots))
	for name := range s.roots {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, c := range s.roots[name] {
			if c.Hash == h {
				return c, name, nil
			}
		}
	}
	return Commit{}, "", fmt.Errorf("vstore: no root commit %s", h)
}

// DeleteRoot drops a root's log (its chunks become GC candidates) and
// durably publishes the change.
func (s *Store) DeleteRoot(root string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.roots[root]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownRoot, root)
	}
	saved := s.roots[root]
	delete(s.roots, root)
	if err := s.publishRoots(); err != nil {
		s.roots[root] = saved
		return err
	}
	return nil
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
	saved := log
	s.roots[root] = append([]Commit(nil), log[len(log)-keep:]...)
	if err := s.publishRoots(); err != nil {
		s.roots[root] = saved
		return err
	}
	return nil
}
