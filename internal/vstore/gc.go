package vstore

import (
	"io"
	"sort"
	"sync"

	"github.com/reliable-cda/cda/internal/framelog"
)

// GC is mark-and-sweep collection of chunks unreachable from any
// commit of any root. It is safe to run concurrently with Put,
// AddPacket, and Commit; two mechanisms keep a racing commit's chunks
// alive:
//
//   - Epoch write barrier with pins. Every Put/AddPacket — including
//     a dedup hit on content already stored — re-touches the chunk's
//     epoch, and a multi-chunk write (encode + commit) holds a Pin
//     recording the epoch it started at. The sweep spares any chunk
//     touched at or after the oldest active pin (or its own epoch if
//     no pin is active), so a tree being encoded mid-sweep — or
//     across several sweeps — survives even though nothing reachable
//     points at it yet. Encoders always Put every node of the tree
//     they build (dedup makes the unchanged ones free), which is
//     exactly what arms the barrier.
//
//   - Head re-scan under the sweep lock. Marking runs without the
//     write lock, so a root can be committed after the mark set was
//     computed. The sweep phase re-reads the root logs under the
//     exclusive lock and marks any commits that appeared since, then
//     deletes. A commit that starts after the sweep takes the lock
//     simply waits for it.
//
// The surviving chunks are rewritten into a fresh pack
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
	// The barrier guard: everything written at or after the oldest
	// active pin's epoch is an in-flight write and must survive.
	guard := sweepEpoch
	for _, e := range s.pins {
		if e < guard {
			guard = e
		}
	}
	doomed := make([]Hash, 0)
	for h, c := range s.chunks {
		switch {
		case marked[h]:
			stats.Live++
		case c.epoch >= guard:
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

// Pin marks the start of a multi-chunk write and returns its release.
// While held, no chunk put at or after the pin's epoch is swept —
// even across multiple GC rounds — closing the window where an
// encode's early chunks are collected before its root is committed.
// Release exactly once the root is durably committed (or the write
// abandoned); the release function is idempotent.
func (s *Store) Pin() func() {
	s.mu.Lock()
	id := s.pinSeq
	s.pinSeq++
	s.pins[id] = s.epoch
	s.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			s.mu.Lock()
			delete(s.pins, id)
			s.mu.Unlock()
		})
	}
}

// headsLocked lists every commit hash of every root. Caller holds
// s.mu (either mode).
func (s *Store) headsLocked() []Hash {
	names := make([]string, 0, len(s.roots)) // cdalint:ignore racy-access -- *Locked helper: caller holds s.mu
	for name := range s.roots {              // cdalint:ignore racy-access -- *Locked helper: caller holds s.mu
		names = append(names, name)
	}
	sort.Strings(names)
	var out []Hash
	for _, name := range names {
		for _, c := range s.roots[name] { // cdalint:ignore racy-access -- *Locked helper: caller holds s.mu
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
		c, ok := s.chunks[h] // cdalint:ignore racy-access -- *Locked helper: caller holds s.mu exclusively
		if !ok {
			continue
		}
		marked[h] = true
		stack = append(stack, c.refs...)
	}
}

// rewritePackLocked rebuilds the pack from the surviving index, in
// hash order, and publishes it atomically. Caller holds s.mu
// exclusively.
func (s *Store) rewritePackLocked() error {
	if s.pack == nil {
		return nil
	}
	hashes := make([]Hash, 0, len(s.chunks)) // cdalint:ignore racy-access -- *Locked helper: caller holds s.mu exclusively
	for h := range s.chunks {                // cdalint:ignore racy-access -- *Locked helper: caller holds s.mu exclusively
		hashes = append(hashes, h)
	}
	sort.Slice(hashes, func(i, j int) bool { return hashes[i] < hashes[j] })
	return s.pack.Rewrite(func(w io.Writer) error {
		for _, h := range hashes {
			if _, err := w.Write(framelog.Encode(packMagic, s.chunks[h].data)); err != nil { // cdalint:ignore racy-access -- *Locked helper: caller holds s.mu exclusively
				return err
			}
		}
		return nil
	})
}
