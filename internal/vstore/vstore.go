// Package vstore is the content-addressed, versioned store underlying
// the repo's time-travel and cheap-replica-catch-up features (P3
// provenance, P4 reproducibility at scale): every piece of analytical
// state — storage tables, session transcripts, shard snapshots — is
// encoded as a Merkle tree of immutable chunks addressed by the
// SHA-256 of their bytes, so two encodings of equal state share every
// chunk, and committing a new version after a small change writes
// only the changed chunks plus the path to the root.
//
// The store keeps two things:
//
//   - chunks: immutable byte payloads that live in the journal, behind
//     an in-memory index from address to (offset, length, refs), so
//     holding history costs disk and O(chunks) of memory, not O(bytes);
//     a read is one checksum-verified pread;
//   - roots: named version lines ("db/main", "session/s0001",
//     "shard/03"), each a commit log of (commit hash, parent hash,
//     turn number, wall-free logical stamp).
//
// It keeps every version of every root: nothing reclaims a chunk or a
// commit, and the journal only grows.
//
// Both chunks and roots are durable through one journal, chunks.pack —
// a framelog.Log. A frame's payload is either a chunk — a
// self-describing record of kind, child addresses and data bytes that
// lets replication walk a tree generically (have/want negotiation over
// chunk hashes) without knowing the schema of what it is shipping — or
// a root record: a commit record is a new version of a root, carrying
// its tree node when the store lacks it; an append record adds a commit
// chunk, shipped from another store, to a root's log; a mark record
// notes a root at its point in the journal and changes no log — an
// event its owner gives meaning to (the session store's evictions). Every payload is
// binary (payload.go has the layouts). A frame spells nothing the frames
// before it hold: a ref to a chunk earlier in the journal is its
// distance back in the journal's chunk order, not its 32-byte address,
// an append record names a commit chunk that precedes it, a commit
// record leaves out its commit's parent and stamp, and the canonical
// chunk and the log entry are rebuilt from them on open, so every
// address, every read and every packet is what the canonical bytes
// make it. That is the store's one format: Open refuses a directory holding
// anything older with a *FormatError, naming the last commit that reads
// it. A version enters the store one way: a Batch stages its new chunks
// and puts them and its commit records into the journal with one append,
// so a crash leaves each root on the old commit or the new one with its
// whole tree. A version shipped from another store enters through
// AddPackets, its chunks, and a Batch that adopts its commit.
//
// Every journal write is flushed before it is acknowledged, and before
// anything it adds can be read: it is appended under the store's lock,
// which orders the journal, and fsynced once that lock is released, so
// readers and writers to other roots never wait behind a disk flush, and
// writers whose appends overlap one fsync share it (framelog's group
// commit). Its chunks and root-log entries are installed only when that
// fsync has succeeded, in journal order. A failed fsync kills
// the journal: every write it covered fails, and so does every later one
// until the store is reopened. Once a dir-backed store is closed, every
// journal write fails.
package vstore

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
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
// is consulted on every put and commit and may return an injected error
// or add seeded latency.
type FaultHook interface {
	Inject(op string) error
}

// Config assembles a Store.
type Config struct {
	// Dir is the data directory; empty runs the store memory-only.
	Dir string
	// Faults, when non-nil, injects deterministic chaos faults into
	// vstore operations ("vstore.put", "vstore.commit"); one that also
	// implements framelog.Faults may tear a journal append
	// ("vstore.journal"). Leave nil in production.
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

// chunk is one index entry: where the chunk's frame lies in the journal
// and the refs every graph walk needs.
type chunk struct {
	off   int64 // the frame's offset in the journal
	n     int   // the frame's payload length
	place int64 // the chunk's place in the journal's chunk order
	refs  []Hash
	data  []byte // memory-only store: the payload itself (see payloadLocked)
	// host says where in its frame the chunk lies; for a commit a
	// commit record stands for, commit is its log entry, whose parent
	// and stamp the record leaves out.
	host   host
	commit *Commit
}

// host is where a chunk lies in the frame its index entry names.
type host uint8

const (
	ownFrame     host = iota // the frame is the chunk
	recordTree               // the tree node a commit record carries inline
	recordCommit             // the commit chunk a commit record stands for
)

// chunkFields are a decoded chunk: its kind, refs and data — in the
// back form, the distances B its refs lie back in the journal's chunk
// order, until the journal scan resolves them into R.
type chunkFields struct {
	K string
	R []Hash
	B []uint64
	D []byte
}

// rootRecord is a journal payload that names a root: an append record,
// which appends Commit, a commit chunk that precedes it, to Root's log,
// or a mark record (Mark). Root is a pointer so that its presence, not
// its value, tells a root record from a chunk.
type rootRecord struct {
	Root   *string
	Commit Hash
	Mark   bool
}

// versionRecord is what a commit record holds of the commit it stands
// for: its turn and its tree, and in form 1 or 6 the tree node itself.
// Tree is the address a form 0 or 1 record spells or hashes; a form 6
// one's the journal scan renders once it has resolved Inline's refs.
type versionRecord struct {
	Turn   int
	Tree   Hash
	Node   []byte // form 1 or 6: the node's payload as the record holds it, aliasing it; nil in form 0
	Inline chunkFields
}

// record is any journal payload, decoded (decodePayload): a chunk, or a
// root record — a commit record when Version is set.
type record struct {
	chunkFields
	rootRecord
	Version *versionRecord
}

// Event is one root record of the journal, as TakeEvents lists them: a
// commit appended to Root's log, or, when Mark is set, a mark on Root,
// which holds no commit.
type Event struct {
	Root   string
	Commit Commit
	Mark   bool
}

// entry is one root record of a journal write: the commit it appends to
// root's log, or a mark.
type entry struct {
	root   string
	commit Commit
	mark   bool
}

// write is one journal append on its way to acknowledgement: written
// under s.mu, then installed — its chunks indexed, its entries appended
// to the root logs — once an fsync of log has covered end. A
// memory-only store installs it at once, and its log is nil.
type write struct {
	log     *framelog.Log
	end     int64
	chunks  []stagedChunk
	offs    []chunk // the index entry of each of chunks
	entries []entry
}

// Store is the content-addressed chunk store. Safe for concurrent
// use: chunks are immutable once put, and the index, roots, and
// journal are guarded by one mutex, which no fsync is waited for under.
type Store struct {
	cfg Config

	mu     sync.RWMutex
	chunks map[Hash]*chunk
	roots  map[string][]Commit
	// events are the root records the journal held at Open, in its
	// order, until TakeEvents hands them over; nothing else adds to them.
	events []Event
	stamp  int64         // store-wide logical commit sequence, writes in flight included
	pack   *framelog.Log // the journal; nil when memory-only or closed
	closed bool          // Close has released the journal: every write fails
	// Writes in flight: appended, not yet covered by an fsync, in journal
	// order, with the chunks they add, at their places in the journal's
	// chunk order, and the newest commit each adds to a root, which later
	// writes build on and no reader sees.
	queue    []*write
	unsynced map[Hash]int64
	heads    map[string]Commit
	// next is the place in the journal's chunk order that the next chunk
	// the journal takes gets: how many chunks the journal holds, writes in
	// flight included.
	next int64
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
	s := &Store{cfg: cfg, chunks: map[Hash]*chunk{}, roots: map[string][]Commit{},
		unsynced: map[Hash]int64{}, heads: map[string]Commit{}}
	if cfg.Dir == "" {
		return s, nil
	}
	if err := checkRootDocument(cfg.Dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("vstore: create %s: %w", cfg.Dir, err)
	}
	if err := s.openPack(); err != nil {
		return nil, err
	}
	return s, nil
}

// checkRootDocument is the *FormatError for a roots.json in dir, the
// root document stores wrote before the journal held roots.
func checkRootDocument(dir string) error {
	roots := filepath.Join(dir, "roots.json")
	if _, err := os.Stat(roots); err == nil {
		return &FormatError{Path: roots, Format: "a root document"}
	}
	return nil
}

// CheckFormat reads the store under dir, changing nothing, and returns
// the *FormatError Open would refuse it with — for a root document or a
// journal frame — or nil: for an owner that must name the oldest format
// in a directory before it opens any of it.
func CheckFormat(dir string) error {
	if err := checkRootDocument(dir); err != nil {
		return err
	}
	path := filepath.Join(dir, packName)
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil // Open creates a missing journal, and says why it cannot read one
	}
	payloads, _ := framelog.Scan(packMagic, raw)
	var off int64
	for _, p := range payloads {
		if _, err := decodePayload(p); err != nil {
			if old := olderFormat(err, path, off); old != nil {
				return old
			}
		}
		off += int64(framelog.HeaderSize + len(p))
	}
	return nil
}

// olderFormat is err when it is a *FormatError, which it names the
// journal frame at off of path in, and nil for any other error.
func olderFormat(err error, path string, off int64) *FormatError {
	var old *FormatError
	if !errors.As(err, &old) {
		return nil
	}
	old.Path, old.Format = path, fmt.Sprintf("%s (the frame at offset %d)", old.Format, off)
	return old
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
// root logs, and a commit record both: the commit it stands for — and
// its tree, when inline — enter the index at the record's offset. Each
// chunk takes the next place in the journal's chunk order, which
// resolves a back form's refs. A torn tail left by a crash mid-append —
// or a payload that does not decode, or a root record whose commit chunk
// does not precede it, or a commit record whose stored tree does not, or
// a back form whose distance reaches before the first chunk — ends the
// valid prefix and is truncated by the log. A frame of an older format
// is a *FormatError: the scan keeps it and every frame after it, so the
// log truncates nothing but a torn tail, and Open fails. Only Open can
// see the store yet; s.mu is taken so that every caller of a *Locked
// helper holds it, replay included.
func (s *Store) openPack() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	opts := framelog.Options{Op: "vstore.journal"}
	if f, ok := s.cfg.Faults.(framelog.Faults); ok {
		opts.Faults = f
	}
	r := &replay{commits: map[Hash][]byte{}}
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
			if old = olderFormat(err, path, off); old != nil {
				return true
			} else if err != nil {
				return false
			}
			switch {
			case rec.Version != nil:
				if s.replayCommitLocked(r, *rec.Root, rec.Version, off, len(payload)) != nil {
					return false
				}
			case rec.Mark:
				s.events = append(s.events, Event{Root: *rec.Root, Mark: true})
			case rec.Root != nil:
				c, err := commitEntry(rec.Commit, r.commits[rec.Commit])
				if err != nil {
					return false
				}
				s.appendEntryLocked(*rec.Root, c)
				s.events = append(s.events, Event{Root: *rec.Root, Commit: c})
			default:
				canonical, err := r.canonical(payload, &rec.chunkFields)
				if err != nil {
					return false
				}
				h := hashBytes(canonical)
				if rec.K == "commit" {
					r.commits[h] = bytes.Clone(canonical)
				}
				s.indexLocked(r, h, &chunk{off: off, n: len(payload), refs: rec.R})
			}
			off += int64(len(frame))
			return true
		})
	if err == nil && old != nil {
		err = errors.Join(old, s.pack.Close())
	}
	return err
}

// replay is what the journal scan keeps while Open runs it.
type replay struct {
	// commits are the payloads of the commit chunks the scan has passed,
	// framed or stood for by a commit record: root records resolve against
	// them, because the log cannot be read until Open returns it. One the
	// scan has not passed is nil, which decodes as no commit, and the
	// record is refused.
	commits map[Hash][]byte
	// order is every chunk the scan has indexed, in the journal's chunk
	// order: what a back form's distances count back through.
	order []Hash
	buf   []byte // a back form's canonical payload, rendered to be hashed
}

// canonical is the canonical payload of the chunk f decoded from the
// frame payload p: p itself, or, for a back form, the payload its
// resolved refs — which f takes — render, valid until the next call.
func (r *replay) canonical(p []byte, f *chunkFields) ([]byte, error) {
	if f.B == nil {
		return p, nil
	}
	var err error
	if f.R, err = resolveBack(r.order, f.B); err != nil {
		return nil, err
	}
	r.buf, err = renderChunk(r.buf, f.K, f.R, f.D)
	return r.buf, err
}

// indexLocked indexes chunk h, which the scan found, at the next place
// in the journal's chunk order. Caller holds s.mu exclusively.
func (s *Store) indexLocked(r *replay, h Hash, c *chunk) {
	c.place = int64(len(r.order))
	r.order = append(r.order, h)
	s.chunks[h] = c
	s.next = c.place + 1
}

// hashBytes addresses a payload.
func hashBytes(b []byte) Hash {
	sum := sha256.Sum256(b)
	return Hash(hex.EncodeToString(sum[:]))
}

// appendPack writes the payloads to the journal, one frame each, with
// one append (a no-op when memory-only), counting it — and the fsync
// that will acknowledge it — against turn, and returns the offset each
// frame was given and the journal's end after them. With no payloads it
// appends nothing and returns the journal's end, so the caller still
// waits for the writes in flight, whose chunks it may have counted on.
// A closed store refuses it. Caller holds s.mu exclusively.
func (s *Store) appendPack(turn *obs.Turn, payloads [][]byte) ([]int64, int64, error) {
	if s.closed {
		return nil, 0, errors.New("vstore: write to a closed store")
	}
	offs := make([]int64, len(payloads))
	if s.pack == nil {
		return offs, 0, nil
	}
	start := s.pack.Size()
	if len(payloads) == 0 {
		return offs, start, nil
	}
	frames := make([][]byte, len(payloads))
	end := start
	for i, p := range payloads {
		frames[i] = framelog.Encode(packMagic, p)
		offs[i] = end
		end += int64(len(frames[i]))
	}
	if _, err := s.pack.Append(frames...); err != nil {
		return nil, 0, err
	}
	turn.Add(obs.JournalFsyncs, 1)
	turn.Add(obs.JournalFrames, len(frames))
	turn.Add(obs.JournalBytes, int(end-start))
	return offs, end, nil
}

// hasLocked reports whether the store holds chunk h or a write in flight
// adds it: whether a write need not frame it again. Caller holds s.mu.
func (s *Store) hasLocked(h Hash) bool {
	_, ok := s.placeLocked(h)
	return ok
}

// placeLocked is chunk h's place in the journal's chunk order, if the
// store holds it or a write in flight adds it. Caller holds s.mu.
func (s *Store) placeLocked(h Hash) (int64, bool) {
	if c, ok := s.chunks[h]; ok {
		return c.place, true
	}
	place, ok := s.unsynced[h]
	return place, ok
}

// tipLocked is the newest commit on root, a write in flight's included:
// what the next commit on it builds on. Caller holds s.mu.
func (s *Store) tipLocked(root string) (Commit, bool) {
	if c, ok := s.heads[root]; ok {
		return c, true
	}
	log := s.roots[root]
	if len(log) == 0 {
		return Commit{}, false
	}
	return log[len(log)-1], true
}

// writeLocked appends the staged chunks no write has framed, each a frame
// of its own, then recs, the root records of entries — the frames that
// hold every staged chunk hosted in one — with one append counted
// against turn, and returns the write, which settle installs. Each chunk
// takes the next place in the journal's chunk order, its own frames'
// first, in staged order, then each record's, its tree node before its
// commit; one whose refs all lie before it is framed, or carried, in the
// back form. A failed or torn append changes nothing in memory. Caller
// holds s.mu exclusively.
func (s *Store) writeLocked(turn *obs.Turn, staged []stagedChunk, recs [][]byte, entries []entry) (*write, error) {
	var fresh, hosted []stagedChunk
	for _, st := range staged {
		switch {
		case st.host != ownFrame:
			// A record's chunks take their places whatever the store
			// holds, as the scan gives them.
			hosted = append(hosted, st)
		case !s.hasLocked(st.hash):
			fresh = append(fresh, st)
		}
	}
	slices.SortStableFunc(hosted, func(a, b stagedChunk) int { return cmp.Or(a.rec-b.rec, int(a.host)-int(b.host)) })
	fresh = append(fresh, hosted...)
	places := make(map[Hash]int64, len(fresh))
	for i, st := range fresh {
		places[st.hash] = s.next + int64(i)
	}
	placeOf := func(h Hash) (int64, bool) {
		if place, ok := places[h]; ok {
			return place, true
		}
		return s.placeLocked(h)
	}
	payloads := make([][]byte, 0, len(fresh)-len(hosted)+len(recs))
	recs = slices.Clone(recs)
	for _, st := range fresh {
		if st.host == recordCommit {
			// A commit record stands for its commit chunk; no frame spells it.
			continue
		}
		payload := st.payload
		if s.pack != nil {
			if dists, ok := backDists(st.refs, places[st.hash], placeOf); ok {
				var err error
				if payload, err = backForm(st.payload, dists); err != nil {
					return nil, err
				}
			}
		}
		switch st.host {
		case ownFrame:
			payloads = append(payloads, payload)
		case recordTree:
			// The record ends in the node's canonical payload; it carries
			// whichever form the node is framed in.
			rec := recs[st.rec]
			recs[st.rec] = append(slices.Clip(rec[:len(rec)-len(st.payload)]), payload...)
		}
	}
	first := len(payloads)
	payloads = append(payloads, recs...)
	offs, end, err := s.appendPack(turn, payloads)
	if err != nil {
		return nil, err
	}
	w := &write{log: s.pack, end: end, chunks: fresh, offs: make([]chunk, len(fresh)), entries: entries}
	for i, st := range fresh {
		c := chunk{place: places[st.hash], refs: st.refs, host: st.host, commit: st.commit}
		if st.host == ownFrame {
			c.off, c.n = offs[i], len(payloads[i])
		} else {
			c.off, c.n = offs[first+st.rec], len(recs[st.rec])
		}
		if s.pack == nil {
			c.data = st.payload
		}
		w.offs[i] = c
	}
	s.next += int64(len(fresh))
	for _, e := range entries {
		s.stamp = max(s.stamp, e.commit.Stamp)
	}
	if w.log == nil {
		s.installLocked(w)
		return w, nil
	}
	turn.Add(obs.ChunksJournalled, len(fresh))
	for i, st := range fresh {
		s.unsynced[st.hash] = w.offs[i].place
	}
	for _, e := range entries {
		if !e.mark {
			s.heads[e.root] = e.commit
		}
	}
	s.queue = append(s.queue, w)
	return w, nil
}

// settle waits, without s.mu, for the fsync that covers w, then installs
// every write in flight that an fsync has covered, in journal order, and
// returns what the wait said: nil once w is installed, the journal's
// death when it died first.
func (s *Store) settle(w *write) error {
	if w.log == nil {
		return nil
	}
	err := w.log.Sync(w.end)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.installSyncedLocked(w.log)
	return err
}

// installSyncedLocked installs the writes in flight on log that an fsync
// has covered, oldest first. On a dead journal the rest never will be,
// and are dropped. Caller holds s.mu exclusively.
func (s *Store) installSyncedLocked(log *framelog.Log) {
	synced := log.Synced()
	for len(s.queue) > 0 && s.queue[0].end <= synced {
		s.installLocked(s.queue[0])
		s.queue[0] = nil
		s.queue = s.queue[1:]
	}
	if log.Dead() {
		s.queue, s.unsynced, s.heads = nil, map[Hash]int64{}, map[string]Commit{}
	}
}

// installLocked makes w's chunks and root records visible. Caller holds
// s.mu exclusively.
func (s *Store) installLocked(w *write) {
	for i, st := range w.chunks {
		c := w.offs[i]
		s.chunks[st.hash] = &c
		delete(s.unsynced, st.hash)
	}
	for _, e := range w.entries {
		if e.mark {
			continue
		}
		s.appendEntryLocked(e.root, e.commit)
		if s.heads[e.root] == e.commit {
			delete(s.heads, e.root)
		}
	}
}

// appendEntryLocked appends c to root's log. Caller holds s.mu
// exclusively.
func (s *Store) appendEntryLocked(root string, c Commit) {
	s.roots[root] = append(s.roots[root], c)
	s.stamp = max(s.stamp, c.Stamp)
}

// TakeEvents hands over the root records the journal held when the store
// opened — each commit a root's log took, and each mark — in journal
// order: the order an owner that keeps its own redo in the journal
// replays. The first call takes them; the store keeps no list of the
// records written since, so a later call returns none.
func (s *Store) TakeEvents() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.events
	s.events = nil
	return out
}

// payloadLocked returns a chunk's canonical payload: framedLocked's,
// rendered from the chunk's refs when the frame holds its back form.
func (s *Store) payloadLocked(h Hash) ([]byte, error) {
	p, c, err := s.framedLocked(h)
	if err != nil || p[0] != tagBack {
		return p, err
	}
	if p, err = renderBack(p[1:], c.refs); err != nil {
		return nil, fmt.Errorf("vstore: read chunk %s: %w", h, err)
	}
	return p, nil
}

// framedLocked returns chunk h's payload as the journal spells it, and
// its index entry: one pread of its frame, refused unless magic, length
// and checksum verify, then framedPayload — or, in a memory-only store,
// the canonical bytes its entry kept — so callers treat the result as
// read-only. It runs under s.mu (either mode) because an append moves
// the journal's size, and Close its file, under the exclusive lock; the
// decode can follow the unlock.
func (s *Store) framedLocked(h Hash) ([]byte, *chunk, error) {
	c, ok := s.chunks[h]
	if !ok {
		return nil, nil, fmt.Errorf("%w: %s", ErrUnknownChunk, h)
	}
	if s.pack == nil {
		if c.data == nil {
			return nil, nil, fmt.Errorf("vstore: read chunk %s: the store is closed", h)
		}
		return c.data, c, nil
	}
	p, err := s.pack.ReadFrame(packMagic, c.off, c.n)
	if err == nil {
		p, err = framedPayload(p, c)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("vstore: read chunk %s: %w", h, err)
	}
	return p, c, nil
}

// framedPayload is the payload of the chunk c as the frame payload p
// that holds it spells it, in either form: p itself, or, hosted in a
// commit record, the inline tree node — the record's tail, which starts
// with the chunk's tag — or the commit chunk, rendered from its log
// entry.
func framedPayload(p []byte, c *chunk) ([]byte, error) {
	if c.host == ownFrame {
		return p, nil
	}
	if len(p) == 0 || p[0] != tagCommit {
		return nil, errors.New("the frame is no commit record")
	}
	if c.host == recordCommit {
		_, payload, err := commitChunk(c.commit.Tree, c.commit.Parent, c.commit.Turn, c.commit.Stamp)
		return payload, err
	}
	_, _, tree, err := cutCommitHead(p)
	if err != nil {
		return nil, err
	}
	if tree[0] != treeInline && tree[0] != treeBack {
		return nil, errors.New("the commit record carries no tree node")
	}
	return tree, nil
}

// encodeChunk renders a chunk's payload and its address.
func encodeChunk(kind string, refs []Hash, data []byte) (Hash, []byte, error) {
	payload, err := appendChunk(kind, refs, data)
	if err != nil {
		return "", nil, err
	}
	return hashBytes(payload), payload, nil
}

// Has reports whether the chunk is present.
func (s *Store) Has(h Hash) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.chunks[h]
	return ok
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
// treats as read-only and decodes itself: read from the chunk as its
// frame spells it, so a back form's refs are not rendered.
func (s *Store) Data(h Hash) (string, []byte, error) {
	s.mu.RLock()
	p, _, err := s.framedLocked(h)
	s.mu.RUnlock()
	if err != nil {
		return "", nil, err
	}
	rec, err := decodePayload(p)
	if err != nil {
		return "", nil, fmt.Errorf("vstore: decode chunk %s: %w", h, err)
	}
	return rec.K, rec.D, nil
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

// Close waits for the journal writes in flight to be flushed — flushing
// them itself if no writer is — installs them, and releases the file
// handle. On a dir-backed store every later write fails: nothing it
// acknowledged could reach the journal.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pack == nil {
		return nil
	}
	s.closed = true
	var err error
	if !s.pack.Dead() { // a dead journal said so where it died
		err = s.pack.Sync(s.pack.Size())
	}
	s.installSyncedLocked(s.pack)
	err = errors.Join(err, s.pack.Close())
	s.pack = nil
	return err
}
