package vstore

import (
	"io"
	"sort"

	"github.com/reliable-cda/cda/internal/framelog"
)

// GC is mark-and-sweep collection of chunks unreachable from any
// commit of any root. It is safe to run concurrently with Put,
// AddPackets, and Commit; two mechanisms keep a racing commit's chunks
// alive:
//
//   - Epoch write barrier. Every Put/AddPackets — including a dedup
//     hit on content already stored — re-touches the chunk's epoch,
//     and the sweep spares any chunk touched at or after its own
//     epoch, so chunks shipped or put one by one while a sweep runs
//     survive even though nothing reachable points at them yet. A
//     version written through a Batch does not depend on it: Commit
//     re-checks under the store lock which staged chunks the store
//     still holds and journals the rest with the root.
//
//   - Head re-scan under the sweep lock. Marking runs without the
//     write lock, so a root can be committed after the mark set was
//     computed. The sweep phase re-reads the root logs under the
//     exclusive lock and marks any commits that appeared since, then
//     deletes. A commit that starts after the sweep takes the lock
//     simply waits for it.
//
// The surviving chunks, followed by one "log is exactly" record per
// root as the checkpoint, are rewritten into a fresh journal
// (framelog.Log.Rewrite) so on-disk space is actually reclaimed.

// GCStats reports what a collection did.
type GCStats struct {
	Live    int // chunks retained as reachable
	Spared  int // unreachable but epoch-protected (in-flight commits)
	Swept   int // chunks deleted
	Rescans int // heads discovered by the under-lock re-scan
}

// GC collects unreachable chunks and compacts the pack file.
func (s *Store) GC() (GCStats, error) {
	// Phase 1: open a new epoch and snapshot the current heads.
	s.mu.Lock()
	s.epoch++
	sweepEpoch := s.epoch
	heads := s.headsLocked()
	s.mu.Unlock()

	if s.cfg.Faults != nil {
		if err := s.cfg.Faults.Inject("vstore.gc.mark"); err != nil {
			return GCStats{}, err
		}
	}

	// Phase 2: mark, read-locked per step so writers keep flowing.
	marked := map[Hash]bool{}
	s.markFrom(heads, marked)

	if s.cfg.Faults != nil {
		if err := s.cfg.Faults.Inject("vstore.gc.sweep"); err != nil {
			return GCStats{}, err
		}
	}

	// Phase 3: sweep under the exclusive lock, after re-marking from
	// any head committed while phase 2 ran.
	s.mu.Lock()
	defer s.mu.Unlock()
	var stats GCStats
	for _, h := range s.headsLocked() {
		if !marked[h] {
			stats.Rescans++
			s.markFromLocked(h, marked)
		}
	}
	doomed := make([]Hash, 0)
	for h, c := range s.chunks {
		switch {
		case marked[h]:
			stats.Live++
		case c.epoch >= sweepEpoch:
			// The barrier: written since this sweep began.
			stats.Spared++
		default:
			doomed = append(doomed, h)
		}
	}
	sort.Slice(doomed, func(i, j int) bool { return doomed[i] < doomed[j] })
	for _, h := range doomed {
		delete(s.chunks, h)
	}
	stats.Swept = len(doomed)
	if stats.Swept > 0 {
		if err := s.rewritePackLocked(); err != nil {
			return stats, err
		}
	}
	return stats, nil
}

// headsLocked lists every commit hash of every root. Caller holds
// s.mu (either mode).
func (s *Store) headsLocked() []Hash {
	var out []Hash
	for _, name := range s.rootNamesLocked() {
		for _, c := range s.roots[name] {
			out = append(out, c.Hash)
		}
	}
	return out
}

// markFrom walks the ref graph from the given heads, taking the read
// lock per chunk fetch so it can interleave with writers.
func (s *Store) markFrom(heads []Hash, marked map[Hash]bool) {
	stack := append([]Hash(nil), heads...)
	for len(stack) > 0 {
		h := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if marked[h] {
			continue
		}
		s.mu.RLock()
		c, ok := s.chunks[h]
		var refs []Hash
		if ok {
			refs = append(refs, c.refs...)
		}
		s.mu.RUnlock()
		if !ok {
			continue
		}
		marked[h] = true
		stack = append(stack, refs...)
	}
}

// markFromLocked is markFrom for the sweep phase; caller holds the
// exclusive lock.
func (s *Store) markFromLocked(head Hash, marked map[Hash]bool) {
	stack := []Hash{head}
	for len(stack) > 0 {
		h := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if marked[h] {
			continue
		}
		c, ok := s.chunks[h]
		if !ok {
			continue
		}
		marked[h] = true
		stack = append(stack, c.refs...)
	}
}

// rewritePackLocked rebuilds the journal as the surviving chunks in
// hash order followed by every root's log in name order, streaming each
// payload from the old file into the new one, and publishes it
// atomically. Caller holds s.mu exclusively.
func (s *Store) rewritePackLocked() error {
	if s.pack == nil {
		return nil
	}
	hashes := make([]Hash, 0, len(s.chunks))
	for h := range s.chunks {
		hashes = append(hashes, h)
	}
	sort.Slice(hashes, func(i, j int) bool { return hashes[i] < hashes[j] })
	names := s.rootNamesLocked()
	offs := make([]int64, len(hashes))
	err := s.pack.Rewrite(func(w io.Writer) error {
		var end int64
		for i, h := range hashes {
			payload, err := s.payloadLocked(h)
			if err != nil {
				return err
			}
			n, err := w.Write(framelog.Encode(packMagic, payload))
			if err != nil {
				return err
			}
			offs[i] = end
			end += int64(n)
		}
		for _, name := range names {
			payload, err := rootPayload(setRecord(name, s.roots[name], s.stamp))
			if err != nil {
				return err
			}
			if _, err := w.Write(framelog.Encode(packMagic, payload)); err != nil {
				return err
			}
		}
		return nil
	})
	s.relocateLocked(hashes, offs, err == nil)
	return err
}

// relocateLocked points the index at the rewritten journal. A Rewrite
// that reported success wrote every chunk where offs says. One that
// failed may have done so on either side of its rename, and which file
// now bears the name is not guessed: an entry takes whichever of its new
// and old offsets still reads back as its own bytes, and is unreadable
// if neither does. Caller holds s.mu exclusively.
func (s *Store) relocateLocked(hashes []Hash, offs []int64, trusted bool) {
	for i, h := range hashes {
		c := s.chunks[h]
		if trusted {
			c.off = offs[i]
			continue
		}
		for _, off := range []int64{offs[i], c.off, -1} {
			c.off = off
			if p, err := s.payloadLocked(h); err == nil && hashBytes(p) == h {
				break
			}
		}
	}
}
