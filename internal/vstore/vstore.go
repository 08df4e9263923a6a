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
//   - chunks: immutable byte payloads that live in the journal, behind
//     an in-memory index from address to (offset, length, refs), so
//     holding history costs disk and O(chunks) of memory, not O(bytes);
//     a read is one checksum-verified pread;
//   - roots: named version lines ("db/main", "session/s0001",
//     "shard/03"), each a commit log of (commit hash, parent hash,
//     turn number, wall-free logical stamp);
//   - a garbage collector: mark-and-sweep from every commit of every
//     root, with an epoch write barrier so chunks put or re-touched
//     while a sweep is running are never collected (see gc.go).
//
// Both chunks and roots are durable through one journal, chunks.pack —
// a framelog.Log, the same frame codec and torn-tail recovery as the
// session store's WAL. A frame's payload is either a chunk — a
// self-describing record of kind, child addresses and data bytes that
// lets replication walk a tree generically (have/want negotiation over
// chunk hashes) without knowing the schema of what it is shipping — or
// a root record: one appends a commit to a root's log, another says the
// log is now exactly a list of commits (empty: the root is gone). Every
// payload is binary, every address its 32 raw bytes (payload.go has the
// layouts). A root record names commit chunks that precede it in the
// journal; the log entry is rebuilt from the chunk on open. That is the
// store's one format: Open refuses a directory holding anything older
// with a *FormatError, naming the last commit that reads it.
// A Batch puts a version's new chunks, its commit chunk and its root
// record into the journal with one append, so a crash leaves the root
// on the old commit or the new one with its whole tree. GC rewrites
// the journal as the surviving chunks followed by one "log is exactly"
// record per root — log + checkpoint, the shape the WAL has.
//
// When the journal is flushed depends on who could rebuild the version.
// Nothing can rebuild a data root, a shard root, an adopted commit, a
// shipped packet or a root-log edit, so Batch.Commit and every other
// journal write is framelog's Append: write + fsync, then the
// acknowledgement. A session version is a pure function of a transcript
// the session store's WAL already holds flushed, so that one caller
// uses Batch.CommitUnsynced — framelog's Write, no fsync: readable at
// once, flushed by the next flushed append or by Store.Sync, which the
// session store calls before it truncates the WAL that could have
// rebuilt the version (and Close calls last).
package vstore

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"github.com/reliable-cda/cda/internal/framelog"
	"github.com/reliable-cda/cda/internal/obs"
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
	// "vstore.gc.mark", "vstore.gc.sweep"); one that also implements
	// framelog.Faults may tear a journal append ("vstore.journal").
	// Leave nil in production.
	Faults FaultHook
}

// ErrUnknownChunk is returned by Get/Packet for an absent address.
var ErrUnknownChunk = errors.New("vstore: unknown chunk")

// ErrUnknownRoot is returned for an absent root name.
var ErrUnknownRoot = errors.New("vstore: unknown root")

// ErrBadPacket is returned for a shipped packet whose bytes do not hash
// to its claimed address, or are not a chunk a writer of this store
// produces.
var ErrBadPacket = errors.New("vstore: bad packet")

// MalformedChunkError is a chunk that is stored and intact but not the
// shape its reader needs: AddPackets checks a peer's chunk against its
// hash, its layout and the data of the kinds this store owns, not the
// schema of other kinds' data or what its refs point at, so a forged
// tree is this error, never a panic.
type MalformedChunkError struct {
	Chunk Hash
	Err   error
}

func (e *MalformedChunkError) Error() string {
	return fmt.Sprintf("vstore: chunk %s %v", e.Chunk, e.Err)
}
func (e *MalformedChunkError) Unwrap() error { return e.Err }

// malformed builds a MalformedChunkError from a fmt.Errorf format.
func malformed(h Hash, format string, args ...any) error {
	return &MalformedChunkError{Chunk: h, Err: fmt.Errorf(format, args...)}
}

// chunk is one index entry: where the chunk's frame lies in the journal,
// the refs every graph walk needs, and its GC bookkeeping.
type chunk struct {
	off  int64 // the frame's offset in the journal
	n    int   // payload length
	refs []Hash
	data []byte // memory-only store: the payload itself (see payloadLocked)
	// epoch is the GC epoch the chunk was last put or re-touched in;
	// the sweep spares any chunk touched at or after the sweep's own
	// epoch (the write barrier for in-flight commits).
	epoch uint64
}

// chunkFields are a decoded chunk: its kind, refs and data.
type chunkFields struct {
	K string
	R []Hash
	D []byte
}

// rootRecord is the journal payload that updates a root. With Commit
// set it appends that commit to the root's log; without, it replaces
// the log with exactly Log (empty deletes the root) and carries the
// store-wide stamp, which must survive a checkpoint that drops the
// commits that reached it. Root is a pointer so that its presence, not
// its value, tells a root record from a chunk.
type rootRecord struct {
	Root   *string
	Commit Hash
	Log    []Hash
	Stamp  int64
}

// record is either journal payload, decoded (decodePayload).
type record struct {
	chunkFields
	rootRecord
}

// Store is the content-addressed chunk store. Safe for concurrent
// use: chunks are immutable once put, and the index, roots, and
// journal are guarded by one mutex.
type Store struct {
	cfg Config

	mu     sync.RWMutex
	chunks map[Hash]*chunk
	roots  map[string][]Commit
	stamp  int64         // store-wide logical commit sequence
	epoch  uint64        // GC epoch counter (see gc.go)
	pack   *framelog.Log // the journal; nil when memory-only
}

// packMagic tags the journal's frames in the shared framelog layout. A
// chunk's address is recomputed on load, so the journal needs no
// separate hash column.
const packMagic = byte(0xC6)

const packName = "chunks.pack"

// lastReader names the last commit that reads a directory older than
// the one format this store reads, and upgrades it on open.
const lastReader = `6a9117d ("a chunk's refs are bytes")`

// FormatError is a data directory, or a payload, older than the one
// format this store reads: Path holds Format. Open refuses such a
// directory as it found it — no file removed, no frame whose checksum
// verifies dropped — so the commit Reader names can still upgrade it.
type FormatError struct {
	Path   string
	Format string
	// Reader names the last commit that reads Format; empty is
	// lastReader, the last that reads this store's older formats.
	Reader string
}

func (e *FormatError) Error() string {
	reader := e.Reader
	if reader == "" {
		reader = lastReader
	}
	msg := fmt.Sprintf("%s, a format older than this store reads; the last commit that reads it is %s", e.Format, reader)
	if e.Path != "" {
		msg = e.Path + " holds " + msg
	}
	return "vstore: " + msg
}

// Open builds a store over cfg.Dir (created if needed), replaying the
// journal; an empty Dir is memory-only. A directory older than the
// store's format is a *FormatError: a roots.json, the root document
// stores wrote before the journal held roots, or a journal frame
// decodePayload takes for an older shape.
func Open(cfg Config) (*Store, error) {
	s := &Store{cfg: cfg, chunks: map[Hash]*chunk{}, roots: map[string][]Commit{}}
	if cfg.Dir == "" {
		return s, nil
	}
	roots := filepath.Join(cfg.Dir, "roots.json")
	if _, err := os.Stat(roots); err == nil {
		return nil, &FormatError{Path: roots, Format: "a root document"}
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("vstore: create %s: %w", cfg.Dir, err)
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

// openPack opens (creating if absent) the journal and replays it:
// chunks enter the index at their offsets, root records rebuild the
// root logs. A torn tail left by a crash mid-append — or a payload that
// does not decode, or a root record whose commit chunk does not precede
// it — ends the valid prefix and is truncated by the log. A frame of an
// older format is a *FormatError: the scan keeps it and every frame
// after it, so the log truncates nothing but a torn tail, and Open
// fails. Only Open can see the store yet; s.mu is taken so that every
// caller of a *Locked helper holds it, replay included.
func (s *Store) openPack() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	opts := framelog.Options{Op: "vstore.journal"}
	if f, ok := s.cfg.Faults.(framelog.Faults); ok {
		opts.Faults = f
	}
	// The log cannot be read until Open returns it, so root records are
	// resolved against the commit chunks this scan has passed: payloads
	// that alias its read buffer and go when it does. One it has not
	// passed is nil, which decodes as no commit, and the record is refused.
	commits := map[Hash][]byte{}
	path := filepath.Join(s.cfg.Dir, packName)
	var old *FormatError
	var off int64
	var err error
	s.pack, err = framelog.Open(path, packMagic, opts,
		func(frame, payload []byte) bool {
			if old != nil {
				return true
			}
			rec, err := decodePayload(payload)
			if errors.As(err, &old) {
				old.Path, old.Format = path, fmt.Sprintf("%s (the frame at offset %d)", old.Format, off)
				return true
			}
			if err != nil {
				return false
			}
			if rec.Root != nil {
				if s.applyRootLocked(rec.rootRecord, true, commits) != nil {
					return false
				}
			} else {
				h := hashBytes(payload)
				if rec.K == "commit" {
					commits[h] = payload
				}
				s.chunks[h] = &chunk{off: off, n: len(payload), refs: rec.R}
			}
			off += int64(len(frame))
			return true
		})
	if err == nil && old != nil {
		err = errors.Join(old, s.pack.Close())
	}
	return err
}

// hashBytes addresses a payload.
func hashBytes(b []byte) Hash {
	sum := sha256.Sum256(b)
	return Hash(hex.EncodeToString(sum[:]))
}

// appendPack writes the payloads to the journal, one frame each, with
// one append (a no-op when memory-only) — and one fsync when durable;
// without, they are flushed by the next durable append or Sync —
// counting the append against turn, and returns the offset each frame
// was given. Caller holds s.mu.
func (s *Store) appendPack(turn *obs.Turn, durable bool, payloads ...[]byte) ([]int64, error) {
	offs := make([]int64, len(payloads))
	if s.pack == nil {
		return offs, nil
	}
	frames := make([][]byte, len(payloads))
	start := s.pack.Size()
	end := start
	for i, p := range payloads {
		frames[i] = framelog.Encode(packMagic, p)
		offs[i] = end
		end += int64(len(frames[i]))
	}
	var err error
	if durable {
		err = s.pack.Append(frames...)
	} else {
		err = s.pack.Write(frames...)
	}
	if err != nil {
		return nil, err
	}
	if durable {
		turn.Add(obs.JournalFsyncs, 1)
	}
	turn.Add(obs.JournalFrames, len(frames))
	turn.Add(obs.JournalBytes, int(end-start))
	return offs, nil
}

// journalLocked appends the staged chunks the store lacks, then the
// root records in tail, with one append, and indexes the chunks only
// once it is acknowledged: a failed or torn append leaves memory as it
// was. A chunk the store holds is re-touched instead (the GC write
// barrier). durable is appendPack's, and the append is counted against
// turn. Caller holds s.mu exclusively.
func (s *Store) journalLocked(turn *obs.Turn, durable bool, staged []stagedChunk, tail ...[]byte) error {
	var fresh []stagedChunk
	var payloads [][]byte
	for _, st := range staged {
		if c, ok := s.chunks[st.hash]; ok {
			c.epoch = s.epoch
		} else {
			fresh = append(fresh, st)
			payloads = append(payloads, st.payload)
		}
	}
	offs, err := s.appendPack(turn, durable, append(payloads, tail...)...)
	if err != nil {
		return err
	}
	if s.pack != nil {
		turn.Add(obs.ChunksJournalled, len(fresh))
	}
	for i, st := range fresh {
		c := &chunk{off: offs[i], n: len(st.payload), refs: st.refs, epoch: s.epoch}
		if s.pack == nil {
			c.data = st.payload
		}
		s.chunks[st.hash] = c
	}
	return nil
}

// payloadLocked returns a chunk's payload: one pread of its frame,
// refused unless magic, length and checksum verify — or, in a
// memory-only store, the bytes its entry kept, so callers treat the
// result as read-only. It runs under s.mu (either mode) because GC's
// rewrite swaps the file and every offset under the exclusive lock; the
// decode can follow the unlock.
func (s *Store) payloadLocked(h Hash) ([]byte, error) {
	c, ok := s.chunks[h]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownChunk, h)
	}
	if s.pack == nil {
		if c.data == nil {
			return nil, fmt.Errorf("vstore: read chunk %s: the store is closed", h)
		}
		return c.data, nil
	}
	payload, err := s.pack.ReadFrame(packMagic, c.off, c.n)
	if err != nil {
		return nil, fmt.Errorf("vstore: read chunk %s: %w", h, err)
	}
	return payload, nil
}

// encodeChunk renders a chunk's payload and its address.
func encodeChunk(kind string, refs []Hash, data []byte) (Hash, []byte, error) {
	payload, err := appendChunk(kind, refs, data)
	if err != nil {
		return "", nil, err
	}
	return hashBytes(payload), payload, nil
}

// injectPut consults the "vstore.put" fault, once for every chunk put.
func (s *Store) injectPut() error {
	if s.cfg.Faults != nil {
		return s.cfg.Faults.Inject("vstore.put")
	}
	return nil
}

// Put stores one chunk, returning its address. Re-putting identical
// content is free (content addressing dedups) but still re-touches
// the chunk's GC epoch — the write barrier that keeps a tree being
// committed mid-sweep alive. data is the caller's bytes, nil for none.
func (s *Store) Put(kind string, refs []Hash, data []byte) (Hash, error) {
	h, payload, err := encodeChunk(kind, refs, data)
	if err != nil {
		return "", err
	}
	if err := s.putEncoded(h, payload, refs); err != nil {
		return "", err
	}
	return h, nil
}

// putEncoded is Put for a chunk encodeChunk has rendered.
func (s *Store) putEncoded(h Hash, payload []byte, refs []Hash) error {
	if err := s.injectPut(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.journalLocked(nil, true, []stagedChunk{{hash: h, payload: payload, refs: refs}})
}

// Has reports whether the chunk is present.
func (s *Store) Has(h Hash) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.chunks[h]
	return ok
}

// get reads and decodes one chunk. Callers treat the
// returned data as read-only.
func (s *Store) get(h Hash) (chunkFields, error) {
	s.mu.RLock()
	payload, err := s.payloadLocked(h)
	s.mu.RUnlock()
	if err != nil {
		return chunkFields{}, err
	}
	rec, err := decodePayload(payload)
	if err != nil {
		return chunkFields{}, fmt.Errorf("vstore: decode chunk %s: %w", h, err)
	}
	return rec.chunkFields, nil
}

// Kind returns a chunk's kind.
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

// Data returns a chunk's kind and its data bytes, which the caller
// treats as read-only and decodes itself.
func (s *Store) Data(h Hash) (string, []byte, error) {
	env, err := s.get(h)
	if err != nil {
		return "", nil, err
	}
	return env.K, env.D, nil
}

// PacketOf exports one chunk in wire form.
func (s *Store) PacketOf(h Hash) (Packet, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	payload, err := s.payloadLocked(h)
	if err != nil {
		return Packet{}, err
	}
	return Packet{Hash: h, Data: append([]byte(nil), payload...)}, nil
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

// Sync flushes the journal: every version committed before it returns
// nil survives a power cut. Only CommitUnsynced leaves anything to
// flush; its caller calls Sync before giving up the log it could have
// rebuilt those versions from. A failed flush leaves the journal dead —
// every later commit and Sync fails until the store is reopened.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pack == nil {
		return nil
	}
	return s.pack.Sync()
}

// JournalSynced reports the journal's flushed prefix and its size in
// bytes (framelog's Synced and Size; both 0 when memory-only or closed).
func (s *Store) JournalSynced() (synced, size int64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.pack == nil {
		return 0, 0
	}
	return s.pack.Synced(), s.pack.Size()
}

// Close flushes the journal and releases its file handle.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pack == nil {
		return nil
	}
	var err error
	if !s.pack.Dead() { // a dead journal said so where it died
		err = s.pack.Sync()
	}
	err = errors.Join(err, s.pack.Close())
	s.pack = nil
	return err
}
