package vstore

import (
	"fmt"
	"sort"
)

// Have/want chunk negotiation, which cluster.Router.negotiateChunks
// drives for the replica: the replica walks a wanted version's ref
// graph over the chunks it already has; every reference it cannot
// resolve is the next "want" frontier. The primary answers with
// exactly those packets; the replica installs them and walks again.
// The loop terminates because every round either resolves the frontier
// or descends one tree level, and trees are finite — and it ships only
// missing chunks, so a replica that already holds most of a snapshot
// (structural sharing with its previous one) transfers only the delta.

// WantList returns the missing-chunk frontier for target: the sorted
// set of addresses that are referenced on paths from target through
// chunks this store already holds, but are absent locally. An empty
// result means the full closure of target is present. limit > 0 caps
// the result (batched negotiation); 0 means unlimited.
func (s *Store) WantList(target Hash, limit int) []Hash {
	s.mu.RLock()
	defer s.mu.RUnlock()
	missing := map[Hash]bool{}
	seen := map[Hash]bool{target: true}
	stack := []Hash{target}
	for len(stack) > 0 {
		h := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		c, ok := s.chunks[h]
		if !ok {
			missing[h] = true
			continue
		}
		for _, ref := range c.refs {
			if !seen[ref] {
				seen[ref] = true
				stack = append(stack, ref)
			}
		}
	}
	out := make([]Hash, 0, len(missing))
	for h := range missing {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

// HasClosure reports whether every chunk reachable from target is
// present locally.
func (s *Store) HasClosure(target Hash) bool {
	return len(s.WantList(target, 1)) == 0
}

// AddPackets installs a batch of shipped chunks. Every packet is
// verified first: its bytes must hash to its address and decode as a
// chunk a writer of this store produces (decodePayload, checkShipped),
// so a chunk of an older format is ErrBadPacket like any forgery, and a
// bad one anywhere in the batch installs nothing. Then the chunks the
// store lacks are journalled with one flushed append.
func (s *Store) AddPackets(ps []Packet) error {
	staged := make([]stagedChunk, 0, len(ps))
	seen := map[Hash]bool{}
	for _, p := range ps {
		if hashBytes(p.Data) != p.Hash {
			return fmt.Errorf("%w: %s does not hash to its address", ErrBadPacket, p.Hash)
		}
		rec, err := decodePayload(p.Data)
		if err != nil {
			return fmt.Errorf("%w: decode %s: %v", ErrBadPacket, p.Hash, err)
		}
		if err := checkShipped(rec); err != nil {
			return fmt.Errorf("%w: %s %v", ErrBadPacket, p.Hash, err)
		}
		if !seen[p.Hash] {
			seen[p.Hash] = true
			staged = append(staged, stagedChunk{hash: p.Hash, payload: append([]byte(nil), p.Data...), refs: rec.R})
		}
	}
	s.mu.Lock()
	w, err := s.writeLocked(nil, staged, nil, nil)
	s.mu.Unlock()
	if err != nil {
		return err
	}
	return s.settle(w)
}
