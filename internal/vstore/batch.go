package vstore

import (
	"fmt"

	"github.com/reliable-cda/cda/internal/obs"
)

// Batch stages the chunks of one version in memory and lands them and the
// commit record in the journal with one append. Nothing staged is visible
// in the store before Commit, and Commit decides under the store lock
// which staged chunks the store lacks, so a chunk another writer
// journalled in the meantime is not framed twice. A Batch serves one
// goroutine and one version.
type Batch struct {
	s      *Store
	turn   *obs.Turn // counts what the batch encodes and journals; may be nil
	staged []stagedChunk
	seen   map[Hash]bool
}

// stagedChunk is a chunk on its way into the journal: framed on its own,
// or, by host, carried by the commit record that ends the append.
type stagedChunk struct {
	hash    Hash
	payload []byte
	refs    []Hash
	host    host
	commit  *Commit // a recordCommit chunk's log entry
}

// NewBatch starts an empty write batch whose work is counted against
// turn (nil: counted nowhere).
func (s *Store) NewBatch(turn *obs.Turn) *Batch {
	return &Batch{s: s, turn: turn, seen: map[Hash]bool{}}
}

// Put stages one chunk and returns its address. Staging identical
// content again is free (content addressing dedups). data is the
// caller's bytes, nil for none.
func (b *Batch) Put(kind string, refs []Hash, data []byte) (Hash, error) {
	h, payload, err := encodeChunk(kind, refs, data)
	if err != nil {
		return "", err
	}
	b.turn.Add(obs.ChunksEncoded, 1)
	b.turn.Add(obs.ChunksHashed, 1)
	if err := b.putEncoded(h, payload, refs); err != nil {
		return "", err
	}
	return h, nil
}

// putEncoded is Put for a chunk encodeChunk has rendered. It consults
// the "vstore.put" fault once for every chunk put.
func (b *Batch) putEncoded(h Hash, payload []byte, refs []Hash) error {
	if f := b.s.cfg.Faults; f != nil {
		if err := f.Inject("vstore.put"); err != nil {
			return err
		}
	}
	if !b.seen[h] {
		b.seen[h] = true
		b.staged = append(b.staged, stagedChunk{hash: h, payload: payload, refs: refs})
	}
	return nil
}

// Commit appends a new version to the named root, pinning tree, which
// must be staged or already stored. The staged chunks the store lacks
// and one commit record — which carries the tree node when the store
// lacks that too — reach the journal in one append; the index and the
// root log change only once it is acknowledged, so a failed append
// leaves the store as it was. The append is flushed before Commit
// returns: the version survives a power cut, as one that nothing else
// could rebuild must.
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
	if len(log) > 0 {
		if last := log[len(log)-1]; last.Tree == tree && last.Turn == turn {
			// Idempotent re-commit (recovery replay, batch re-apply):
			// the head already pins this exact state.
			return last, nil
		}
	}
	c, payload, err := s.nextCommitLocked(root, tree, turn)
	if err != nil {
		return Commit{}, fmt.Errorf("vstore: encode commit for %q: %w", root, err)
	}
	b.turn.Add(obs.ChunksEncoded, 1)
	b.turn.Add(obs.ChunksHashed, 1)
	rec, err := commitPayload(root, turn, tree, b.inlineLocked(tree))
	if err != nil {
		return Commit{}, err
	}
	staged := append(b.staged, stagedChunk{hash: c.Hash, payload: payload, refs: []Hash{tree}, host: recordCommit, commit: &c})
	if err := s.journalLocked(b.turn, durable, staged, rec); err != nil {
		return Commit{}, err
	}
	s.roots[root] = append(log, c)
	s.stamp = c.Stamp
	return c, nil
}

// inlineLocked marks the staged tree node as the commit record's to carry
// and returns its payload when the record can: this batch staged it, the
// store lacks it, and checkInline accepts it. Otherwise it returns nil,
// and the node, framed on its own or already stored, is named by address.
// Caller holds s.mu.
func (b *Batch) inlineLocked(tree Hash) []byte {
	if _, ok := b.s.chunks[tree]; ok || !b.seen[tree] {
		return nil
	}
	for i := len(b.staged) - 1; i >= 0; i-- {
		st := &b.staged[i]
		if st.hash != tree {
			continue
		}
		if node, err := decodeChunk(st.payload[1:]); err != nil || checkInline(node) != nil {
			return nil
		}
		st.host = recordTree
		return st.payload
	}
	return nil
}
