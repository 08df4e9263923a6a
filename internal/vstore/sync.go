package vstore

import (
	"fmt"
	"sort"
)

// Have/want chunk negotiation: the replica drives. It walks a wanted
// version's ref graph over the chunks it already has; every reference
// it cannot resolve is the next "want" frontier. The primary answers
// with exactly those packets; the replica installs them and walks
// again. The loop terminates because every round either resolves the
// frontier or descends one tree level, and trees are finite — and it
// ships only missing chunks, so a replica that already holds most of
// a snapshot (structural sharing with its previous one) transfers
// only the delta.

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

// Closure returns every address reachable from target (including
// target), sorted — the full-transfer fallback and test oracle. It
// fails with ErrUnknownChunk if any part of the closure is absent.
func (s *Store) Closure(target Hash) ([]Hash, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	seen := map[Hash]bool{target: true}
	stack := []Hash{target}
	var out []Hash
	for len(stack) > 0 {
		h := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		c, ok := s.chunks[h]
		if !ok {
			return nil, &missingError{h}
		}
		out = append(out, h)
		for _, ref := range c.refs {
			if !seen[ref] {
				seen[ref] = true
				stack = append(stack, ref)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// missingError wraps ErrUnknownChunk with the address.
type missingError struct{ h Hash }

func (e *missingError) Error() string { return "vstore: unknown chunk " + string(e.h) }
func (e *missingError) Unwrap() error { return ErrUnknownChunk }

// AddPackets installs a batch of shipped chunks. Every packet is
// verified first: its bytes must hash to its address and decode as a
// chunk a writer of this store produces (decodePayload, checkShipped),
// so a chunk of an older format is ErrBadPacket like any forgery, and a
// bad one anywhere in the batch installs nothing. Then the chunks the
// store lacks are journalled with one append.
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
		if err := checkShipped(p.Data, rec); err != nil {
			return fmt.Errorf("%w: %s %v", ErrBadPacket, p.Hash, err)
		}
		if !seen[p.Hash] {
			seen[p.Hash] = true
			staged = append(staged, stagedChunk{hash: p.Hash, payload: append([]byte(nil), p.Data...), refs: rec.R})
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.journalLocked(true, staged)
}

// PullFrom copies the closure of target from src into s using the
// negotiation loop, returning how many chunks were transferred. It is
// the in-process form of the protocol the cluster router runs over
// HTTP; tests and single-process callers use it directly.
func (s *Store) PullFrom(src *Store, target Hash, batch int) (int, error) {
	moved := 0
	for {
		want := s.WantList(target, batch)
		if len(want) == 0 {
			return moved, nil
		}
		packets, err := src.Packets(want)
		if err != nil {
			return moved, err
		}
		if err := s.AddPackets(packets); err != nil {
			return moved, err
		}
		moved += len(packets)
	}
}
