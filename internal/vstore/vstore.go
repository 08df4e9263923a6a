// Package vstore is the content-addressed, versioned store underlying
// the repo's time-travel and cheap-replica-catch-up features (P3
// provenance, P4 reproducibility at scale): every piece of analytical
// state — storage tables, session transcripts, shard snapshots — is
// encoded as a Merkle tree of immutable chunks addressed by the
// SHA-256 of their bytes, so two encodings of equal state share every
// chunk, and committing a new version after a small change writes
// only the changed chunks plus the path to the root.
//
// The store keeps three things:
//
//   - chunks: immutable byte payloads in an in-memory index, mirrored
//     to an append-only pack file — a framelog.Log, the same frame
//     codec and torn-tail recovery as the session store's WAL;
//   - roots: named version lines ("db/main", "session/s0001",
//     "shard/03"), each a commit log of (commit hash, parent hash,
//     turn number, wall-free logical stamp), published atomically
//     (framelog.Publish);
//   - a garbage collector: mark-and-sweep from every commit of every
//     root, with an epoch write barrier so chunks put or re-touched
//     while a sweep is running are never collected (see gc.go).
//
// A chunk's payload is a self-describing JSON envelope
// {"k": kind, "r": [child hashes], "d": data}, so replication can
// walk a tree generically (have/want negotiation over chunk hashes)
// without knowing the schema of what it is shipping.
package vstore

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"github.com/reliable-cda/cda/internal/framelog"
)

// Hash is a chunk address: the lowercase hex SHA-256 of the chunk's
// payload bytes.
type Hash string

// Packet is one chunk as shipped over the wire: its address plus the
// exact payload bytes. The receiver re-hashes the bytes, so a corrupt
// or forged packet is rejected rather than installed.
type Packet struct {
	Hash Hash   `json:"hash"`
	Data []byte `json:"data"`
}

// Commit is one entry of a root's version log.
type Commit struct {
	// Hash addresses the commit chunk (kind "commit", refs = [Tree]).
	Hash Hash `json:"hash"`
	// Tree is the data root this commit pins (a db, session, or shard
	// snapshot chunk).
	Tree Hash `json:"tree"`
	// Parent is the previous commit on this root ("" for the first).
	// Parents are recorded here and in the commit chunk's data — not
	// in its refs — so fetching one version's closure never drags the
	// whole history across the wire.
	Parent Hash `json:"parent,omitempty"`
	// Turn is the caller's logical position (committed turn count,
	// replication cursor, …) at commit time; AsOf resolves against it.
	Turn int `json:"turn"`
	// Stamp is the store-wide logical commit sequence — wall-free, so
	// two runs of one seeded scenario stamp identically.
	Stamp int64 `json:"stamp"`
}

// FaultHook is the chaos seam (see internal/faults): when non-nil it
// is consulted on put, commit, and GC phase boundaries and may return
// an injected error or add seeded latency — the interleaving source
// the GC-under-concurrent-commit tests drive.
type FaultHook interface {
	Inject(op string) error
}

// Config assembles a Store.
type Config struct {
	// Dir is the data directory; empty runs the store memory-only.
	Dir string
	// Faults, when non-nil, injects deterministic chaos faults into
	// vstore operations ("vstore.put", "vstore.commit",
	// "vstore.gc.mark", "vstore.gc.sweep"). Leave nil in production.
	Faults FaultHook
}

// ErrUnknownChunk is returned by Get/Packet for an absent address.
var ErrUnknownChunk = errors.New("vstore: unknown chunk")

// ErrUnknownRoot is returned for an absent root name.
var ErrUnknownRoot = errors.New("vstore: unknown root")

// ErrBadPacket is returned when a packet's bytes do not hash to its
// claimed address.
var ErrBadPacket = errors.New("vstore: packet bytes do not match hash")

// chunk is one stored chunk plus its GC bookkeeping.
type chunk struct {
	data []byte
	refs []Hash
	// epoch is the GC epoch the chunk was last put or re-touched in;
	// the sweep spares any chunk touched at or after the sweep's own
	// epoch (the write barrier for in-flight commits).
	epoch uint64
}

// envelope is the chunk payload schema.
type envelope struct {
	K string          `json:"k"`
	R []Hash          `json:"r,omitempty"`
	D json.RawMessage `json:"d,omitempty"`
}

// Store is the content-addressed chunk store. Safe for concurrent
// use: chunks are immutable once put, and the index, roots, and pack
// file are guarded by one mutex.
type Store struct {
	cfg Config

	mu     sync.RWMutex
	chunks map[Hash]*chunk
	roots  map[string][]Commit
	stamp  int64  // store-wide logical commit sequence
	epoch  uint64 // GC epoch counter (see gc.go)
	pins   map[uint64]uint64
	pinSeq uint64
	pack   *framelog.Log // nil when memory-only
}

// packMagic tags the pack's frames in the shared framelog layout. A
// frame's payload is one chunk envelope; its address is recomputed on
// load, so the pack needs no separate hash column.
const packMagic = byte(0xC6)

const (
	packName  = "chunks.pack"
	rootsName = "roots.json"
)

// rootsDoc is the on-disk roots.json schema.
type rootsDoc struct {
	Stamp int64               `json:"stamp"`
	Roots map[string][]Commit `json:"roots"`
}

// Open builds a store over cfg.Dir (created if needed), loading the
// pack and roots files; an empty Dir is memory-only.
func Open(cfg Config) (*Store, error) {
	s := &Store{cfg: cfg, chunks: map[Hash]*chunk{}, roots: map[string][]Commit{}, pins: map[uint64]uint64{}}
	if cfg.Dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("vstore: create %s: %w", cfg.Dir, err)
	}
	if err := s.loadRoots(); err != nil {
		return nil, err
	}
	if err := s.openPack(); err != nil {
		return nil, err
	}
	return s, nil
}

// NewMemory builds a memory-only store; it cannot fail.
func NewMemory() *Store {
	s, err := Open(Config{})
	if err != nil {
		// Unreachable: every error path in Open touches the data
		// directory, and there is none.
		// cdalint:ignore bare-panic -- impossible-by-construction guard.
		panic(fmt.Sprintf("vstore: memory-only open failed: %v", err))
	}
	return s
}

// loadRoots reads roots.json; a missing file is an empty store.
func (s *Store) loadRoots() error {
	path := filepath.Join(s.cfg.Dir, rootsName)
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("vstore: read %s: %w", path, err)
	}
	var doc rootsDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		// roots.json is published atomically; damage means something
		// outside the store's crash model touched it.
		return fmt.Errorf("vstore: decode %s: %w", path, err)
	}
	s.stamp = doc.Stamp // cdalint:ignore racy-access -- Open-time load, before the store is published
	for name, log := range doc.Roots {
		s.roots[name] = log // cdalint:ignore racy-access -- Open-time load, before the store is published
	}
	return nil
}

// openPack opens (creating if absent) the chunk pack and indexes
// every chunk in it; a torn tail left by a crash mid-append is
// truncated by the log.
func (s *Store) openPack() error {
	var err error
	s.pack, err = framelog.Open(filepath.Join(s.cfg.Dir, packName), packMagic, framelog.Options{},
		func(_, payload []byte) bool {
			var env envelope
			if err := json.Unmarshal(payload, &env); err != nil {
				return false
			}
			data := append([]byte(nil), payload...)
			s.chunks[hashBytes(data)] = &chunk{data: data, refs: env.R} // cdalint:ignore racy-access -- Open-time load, before the store is published
			return true
		})
	return err
}

// hashBytes addresses a payload.
func hashBytes(b []byte) Hash {
	sum := sha256.Sum256(b)
	return Hash(hex.EncodeToString(sum[:]))
}

// appendPack writes one chunk payload durably to the pack (a no-op
// when memory-only). Caller holds s.mu.
func (s *Store) appendPack(payload []byte) error {
	if s.pack == nil {
		return nil
	}
	return s.pack.Append(framelog.Encode(packMagic, payload))
}

// encode renders an envelope canonically (json.Marshal of a struct is
// field-ordered, so equal envelopes hash equally).
func encodeEnvelope(kind string, refs []Hash, data []byte) ([]byte, error) {
	env := envelope{K: kind, R: refs, D: data}
	payload, err := json.Marshal(env)
	if err != nil {
		return nil, fmt.Errorf("vstore: encode %s chunk: %w", kind, err)
	}
	return payload, nil
}

// Put stores one chunk, returning its address. Re-putting identical
// content is free (content addressing dedups) but still re-touches
// the chunk's GC epoch — the write barrier that keeps a tree being
// committed mid-sweep alive. data must be valid JSON (or nil).
func (s *Store) Put(kind string, refs []Hash, data []byte) (Hash, error) {
	if s.cfg.Faults != nil {
		if err := s.cfg.Faults.Inject("vstore.put"); err != nil {
			return "", err
		}
	}
	payload, err := encodeEnvelope(kind, refs, data)
	if err != nil {
		return "", err
	}
	h := hashBytes(payload)
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.chunks[h]; ok {
		c.epoch = s.epoch
		return h, nil
	}
	if err := s.appendPack(payload); err != nil {
		return "", err
	}
	s.chunks[h] = &chunk{data: payload, refs: refs, epoch: s.epoch}
	return h, nil
}

// AddPacket installs a chunk shipped from another store, verifying
// its address.
func (s *Store) AddPacket(p Packet) error {
	if hashBytes(p.Data) != p.Hash {
		return fmt.Errorf("%w: %s", ErrBadPacket, p.Hash)
	}
	var env envelope
	if err := json.Unmarshal(p.Data, &env); err != nil {
		return fmt.Errorf("vstore: decode packet %s: %w", p.Hash, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.chunks[p.Hash]; ok {
		c.epoch = s.epoch
		return nil
	}
	data := append([]byte(nil), p.Data...)
	if err := s.appendPack(data); err != nil {
		return err
	}
	s.chunks[p.Hash] = &chunk{data: data, refs: env.R, epoch: s.epoch}
	return nil
}

// Has reports whether the chunk is present.
func (s *Store) Has(h Hash) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.chunks[h]
	return ok
}

// get decodes one chunk's envelope. Callers treat the returned data
// as read-only.
func (s *Store) get(h Hash) (envelope, error) {
	s.mu.RLock()
	c, ok := s.chunks[h]
	s.mu.RUnlock()
	if !ok {
		return envelope{}, fmt.Errorf("%w: %s", ErrUnknownChunk, h)
	}
	var env envelope
	if err := json.Unmarshal(c.data, &env); err != nil {
		return envelope{}, fmt.Errorf("vstore: decode chunk %s: %w", h, err)
	}
	return env, nil
}

// Kind returns a chunk's envelope kind.
func (s *Store) Kind(h Hash) (string, error) {
	env, err := s.get(h)
	if err != nil {
		return "", err
	}
	return env.K, nil
}

// Refs returns a chunk's child addresses.
func (s *Store) Refs(h Hash) ([]Hash, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c, ok := s.chunks[h]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownChunk, h)
	}
	return append([]Hash(nil), c.refs...), nil
}

// Data unmarshals a chunk's data field into out and returns its kind.
func (s *Store) Data(h Hash, out any) (string, error) {
	env, err := s.get(h)
	if err != nil {
		return "", err
	}
	if out != nil && env.D != nil {
		if err := json.Unmarshal(env.D, out); err != nil {
			return env.K, fmt.Errorf("vstore: decode %s chunk %s data: %w", env.K, h, err)
		}
	}
	return env.K, nil
}

// PacketOf exports one chunk in wire form.
func (s *Store) PacketOf(h Hash) (Packet, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c, ok := s.chunks[h]
	if !ok {
		return Packet{}, fmt.Errorf("%w: %s", ErrUnknownChunk, h)
	}
	return Packet{Hash: h, Data: append([]byte(nil), c.data...)}, nil
}

// Packets exports several chunks in wire form (replication fetch).
func (s *Store) Packets(hs []Hash) ([]Packet, error) {
	out := make([]Packet, 0, len(hs))
	for _, h := range hs {
		p, err := s.PacketOf(h)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// NumChunks reports the index size (structural-sharing assertions).
func (s *Store) NumChunks() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.chunks)
}

// publishRoots atomically replaces roots.json. Caller holds s.mu.
func (s *Store) publishRoots() error {
	if s.cfg.Dir == "" {
		return nil
	}
	doc := rootsDoc{Stamp: s.stamp, Roots: s.roots} // cdalint:ignore racy-access -- *Locked-style helper: caller holds s.mu
	data, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("vstore: encode roots: %w", err)
	}
	return framelog.Publish(filepath.Join(s.cfg.Dir, rootsName), false, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// Close releases the pack file handle.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pack == nil {
		return nil
	}
	err := s.pack.Close()
	s.pack = nil
	return err
}
