package vstore

import (
	"fmt"
	"slices"

	"github.com/reliable-cda/cda/internal/obs"
)

// Batch stages the chunks of one or more versions in memory, queues
// their commits (Version) and marks (Mark), and lands them all in the
// journal with one flushed append (Land, or Commit). Nothing staged is
// visible in the store before the fsync that covers it has succeeded,
// and the append decides under the store lock which staged chunks the
// store lacks, so a chunk another writer journalled in the meantime is
// not framed twice. A Batch serves one goroutine and lands once.
type Batch struct {
	s      *Store
	turn   *obs.Turn // counts what the batch encodes and journals; may be nil
	staged []stagedChunk
	seen   map[Hash]bool
	queued []queuedRecord
}

// queuedRecord is a root record a batch lands: a version of root pinning
// tree at turn, the adoption of commit chunk adopt into root's log, or a
// mark on root.
type queuedRecord struct {
	root  string
	tree  Hash
	turn  int
	adopt Hash
	mark  bool
}

// stagedChunk is a chunk on its way into the journal: framed on its own,
// or, by host, carried by the root record at index rec of its append.
type stagedChunk struct {
	hash    Hash
	payload []byte
	refs    []Hash
	host    host
	rec     int
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

// Version queues a new version of root pinning tree, which must be
// staged or already stored when the batch lands, at turn.
func (b *Batch) Version(root string, tree Hash, turn int) {
	b.queued = append(b.queued, queuedRecord{root: root, tree: tree, turn: turn})
}

// Mark queues a mark record on root: an event in the journal's order
// that TakeEvents lists after a reopen and no root log holds.
func (b *Batch) Mark(root string) {
	b.queued = append(b.queued, queuedRecord{root: root, mark: true})
}

// Adopt queues the adoption of commit chunk h — typically shipped from
// another store — into root's log, preserving the commit's identity
// (hash, turn, stamp) so the two stores agree on version addresses: an
// append record, after which the store-wide stamp is past the commit's.
// The chunk and its tree must be present when the batch lands (ship
// chunks first, adopt after), and the tree must be neither a leaf nor
// another commit: a batch adopting one that fails that lands nothing,
// naming it. Adopting the root's newest commit again writes nothing.
func (b *Batch) Adopt(root string, h Hash) {
	b.queued = append(b.queued, queuedRecord{root: root, adopt: h})
}

// Commit queues a version of root pinning tree at turn and lands the
// batch, returning that version's commit.
func (b *Batch) Commit(root string, tree Hash, turn int) (Commit, error) {
	b.Version(root, tree, turn)
	commits, err := b.land()
	if err != nil {
		return Commit{}, err
	}
	return commits[len(commits)-1], nil
}

// Land puts the staged chunks the store lacks and one root record for
// each queued version, adoption and mark, in the order they were queued,
// into the journal with one append, and returns once an fsync has
// covered it; a version's commit record carries its tree node when the
// store lacks that too. The index and the root logs change only then,
// so a failed append or fsync leaves them as they were: every
// record the batch holds lands, or none, and a crash that tears the
// append keeps a prefix of its records, each with its whole tree. A
// version whose root's newest commit already pins its tree at its turn,
// or an adoption of the newest commit, is that commit and writes nothing.
func (b *Batch) Land() error {
	_, err := b.land()
	return err
}

// land is Land, returning the commit of every queued record — zero for
// a mark.
func (b *Batch) land() ([]Commit, error) {
	s := b.s
	if s.cfg.Faults != nil {
		if err := s.cfg.Faults.Inject("vstore.commit"); err != nil {
			return nil, err
		}
	}
	s.mu.Lock()
	w, commits, err := b.writeLocked()
	s.mu.Unlock()
	if err == nil {
		err = s.settle(w)
	}
	if err != nil {
		return nil, err
	}
	return commits, nil
}

// writeLocked builds the batch's root records on the roots' newest
// commits, writes in flight included, and appends them. Caller holds
// s.mu exclusively.
func (b *Batch) writeLocked() (*write, []Commit, error) {
	s := b.s
	tips := map[string]Commit{} // the batch's own newest commit of each root
	stamp := s.stamp
	var own []stagedChunk // the commit chunks the records carry
	var recs [][]byte
	var entries []entry
	commits := make([]Commit, len(b.queued))
	for i, q := range b.queued {
		last, ok := tips[q.root]
		if !ok {
			last, ok = s.tipLocked(q.root)
		}
		if q.adopt != "" {
			if ok && last.Hash == q.adopt {
				commits[i] = last
				continue
			}
			c, rec, err := s.adoptionLocked(q.root, q.adopt)
			if err != nil {
				return nil, nil, fmt.Errorf("vstore: adopt into %q: %w", q.root, err)
			}
			recs, entries = append(recs, rec), append(entries, entry{root: q.root, commit: c})
			tips[q.root], stamp, commits[i] = c, max(stamp, c.Stamp), c
			continue
		}
		if q.mark {
			rec, err := markPayload(q.root)
			if err != nil {
				return nil, nil, err
			}
			recs, entries = append(recs, rec), append(entries, entry{root: q.root, mark: true})
			continue
		}
		if !s.hasLocked(q.tree) && !b.seen[q.tree] {
			return nil, nil, fmt.Errorf("vstore: commit %q: tree %w: %s", q.root, ErrUnknownChunk, q.tree)
		}
		var parent *Commit
		if ok {
			if last.Tree == q.tree && last.Turn == q.turn {
				// Idempotent re-commit (a batch re-applied): the head
				// already pins this exact state.
				commits[i] = last
				continue
			}
			parent = &last
		}
		c, payload, err := nextCommit(parent, q.tree, q.turn, stamp+1)
		if err != nil {
			return nil, nil, fmt.Errorf("vstore: encode commit for %q: %w", q.root, err)
		}
		b.turn.Add(obs.ChunksEncoded, 1)
		b.turn.Add(obs.ChunksHashed, 1)
		rec, err := commitPayload(q.root, q.turn, q.tree, b.inlineLocked(q.tree, len(recs)))
		if err != nil {
			return nil, nil, err
		}
		own = append(own, stagedChunk{hash: c.Hash, payload: payload, refs: []Hash{q.tree}, host: recordCommit, rec: len(recs), commit: &c})
		recs, entries = append(recs, rec), append(entries, entry{root: q.root, commit: c})
		tips[q.root], stamp, commits[i] = c, c.Stamp, c
	}
	// After the loop: inlineLocked marks the staged nodes the records carry.
	w, err := s.writeLocked(b.turn, append(slices.Clone(b.staged), own...), recs, entries)
	if err != nil {
		return nil, nil, err
	}
	return w, commits, nil
}

// inlineLocked marks the staged tree node as the rec-th root record's to
// carry and returns its payload when the record can: this batch staged
// it, no record of it carries it already, the store lacks it, and
// checkInline accepts it. Otherwise it returns nil, and the node, framed
// on its own or already stored, is named by address. Caller holds s.mu.
func (b *Batch) inlineLocked(tree Hash, rec int) []byte {
	if b.s.hasLocked(tree) || !b.seen[tree] {
		return nil
	}
	for i := len(b.staged) - 1; i >= 0; i-- {
		st := &b.staged[i]
		if st.hash != tree {
			continue
		}
		if st.host != ownFrame {
			return nil
		}
		if node, err := decodeChunk(tagChunk, st.payload[1:]); err != nil || checkInline(node) != nil {
			return nil
		}
		st.host, st.rec = recordTree, rec
		return st.payload
	}
	return nil
}
