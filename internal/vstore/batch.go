package vstore

import (
	"encoding/json"
	"fmt"
)

// Batch stages the chunks of one version in memory and lands them, the
// commit chunk and the root record in the journal with one append.
// Nothing staged is visible in the store before Commit, and
// Commit decides what is new under the store lock, so a GC round
// between encoding a tree and committing it cannot sweep the tree from
// under its root. A Batch serves one goroutine and one version.
type Batch struct {
	s      *Store
	staged []stagedChunk
	seen   map[Hash]bool
}

type stagedChunk struct {
	hash    Hash
	payload []byte
	refs    []Hash
}

// NewBatch starts an empty write batch.
func (s *Store) NewBatch() *Batch {
	return &Batch{s: s, seen: map[Hash]bool{}}
}

// Put stages one chunk and returns its address; see Store.Put.
func (b *Batch) Put(kind string, refs []Hash, data []byte) (Hash, error) {
	h, payload, err := encodeChunk(kind, refs, data)
	if err != nil {
		return "", err
	}
	if err := b.putEncoded(h, payload, refs); err != nil {
		return "", err
	}
	return h, nil
}

// putEncoded is Put for a chunk encodeChunk has rendered.
func (b *Batch) putEncoded(h Hash, payload []byte, refs []Hash) error {
	if err := b.s.injectPut(); err != nil {
		return err
	}
	if !b.seen[h] {
		b.seen[h] = true
		b.staged = append(b.staged, stagedChunk{hash: h, payload: payload, refs: refs})
	}
	return nil
}

// Commit appends a new version to the named root, pinning tree, which
// must be staged or already stored. The staged chunks the store lacks,
// the commit chunk and the root record reach the journal in one
// append; the index and the root log change only once it is
// acknowledged, so a failed append leaves the store as it was. The
// append is flushed before Commit returns: the version survives a power
// cut, as one that nothing else could rebuild must.
func (b *Batch) Commit(root string, tree Hash, turn int) (Commit, error) {
	return b.commit(root, tree, turn, true)
}

// CommitUnsynced is Commit without the fsync, for a version its caller
// can derive again from a redo log it has already flushed: the version
// is readable at once and survives a process kill, and a power cut may
// take it until the next flushed append or Store.Sync. The caller calls
// Sync before it truncates that redo log, and re-derives what is missing
// when it opens. The one such caller is the session store (a session
// root has a WAL behind it; no other root does).
func (b *Batch) CommitUnsynced(root string, tree Hash, turn int) (Commit, error) {
	return b.commit(root, tree, turn, false)
}

func (b *Batch) commit(root string, tree Hash, turn int, durable bool) (Commit, error) {
	s := b.s
	if s.cfg.Faults != nil {
		if err := s.cfg.Faults.Inject("vstore.commit"); err != nil {
			return Commit{}, err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.chunks[tree]; !ok && !b.seen[tree] {
		return Commit{}, fmt.Errorf("vstore: commit %q: tree %w: %s", root, ErrUnknownChunk, tree)
	}
	log := s.roots[root]
	var parent Hash
	if len(log) > 0 {
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
	c := Commit{Hash: hashBytes(payload), Tree: tree, Parent: parent, Turn: turn, Stamp: stamp}
	rootRec, err := appendPayload(root, c.Hash)
	if err != nil {
		return Commit{}, err
	}

	staged := append(b.staged, stagedChunk{hash: c.Hash, payload: payload, refs: []Hash{tree}})
	if err := s.journalLocked(durable, staged, rootRec); err != nil {
		return Commit{}, err
	}
	s.roots[root] = append(log, c)
	s.stamp = stamp
	return c, nil
}
