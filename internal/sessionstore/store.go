// Package sessionstore is the durable, sharded home of conversation
// state. The paper's Figure 1 dialogue treats the accumulated
// transcript — turns, intent annotations, confidences — as a
// first-class artifact the user returns to, so sessions must outlive
// the serving process: every committed turn pair is appended to a
// per-shard write-ahead log before the commit is acknowledged, and
// periodic snapshot compaction folds the log into one JSON document
// so recovery stays O(recent traffic), not O(history).
//
// Layout on disk (one pair of files per shard under Config.Dir):
//
//	shard-00.snap   atomically-published JSON snapshot (compaction)
//	shard-00.wal    append-only framed log of records since the snap
//
// Both are written through internal/framelog, the module's one frame
// codec, torn-tail log and atomic publish; this package owns only what
// the bytes mean — the record and snapshot schemas and their replay.
// Recovery loads the snapshot, replays the WAL over it (idempotent:
// turn records carry their transcript index), and the log truncates
// any torn tail left by a crash mid-append — so a recovered transcript
// is byte-identical to the committed prefix at the moment of the crash.
// The chaos harness (internal/chaos) property-tests exactly that
// under seeded crash/torn-write faults from internal/faults.
//
// Sessions are spread across a power-of-two number of shards by FNV-1a
// hash of the session id; each shard has its own mutex, WAL, and
// snapshot cadence, so commit traffic on one shard never serializes
// against another. Idle sessions are evicted on a TTL measured on the
// injectable resilience.Clock (deterministic in tests); evicted ids
// leave tombstones so the server can answer 410 Gone instead of 404.
package sessionstore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/reliable-cda/cda/internal/dialogue"
	"github.com/reliable-cda/cda/internal/framelog"
	"github.com/reliable-cda/cda/internal/resilience"
	"github.com/reliable-cda/cda/internal/vstore"
)

// GetStatus classifies a session lookup.
type GetStatus int

// Lookup outcomes.
const (
	// Found: the session exists and is live.
	Found GetStatus = iota
	// NotFound: the id was never issued (HTTP 404).
	NotFound
	// Gone: the session existed but was evicted; a tombstone remembers
	// it (HTTP 410).
	Gone
)

// Config assembles a Store.
type Config struct {
	// Dir is the data directory; empty runs the store memory-only
	// (no WAL, no snapshots, nothing survives restart).
	Dir string
	// Shards is the shard count, rounded up to the next power of two
	// (default 8).
	Shards int
	// SnapshotEvery is the per-shard WAL record count between snapshot
	// compactions (default 256).
	SnapshotEvery int
	// TTL evicts sessions idle longer than this; 0 disables eviction.
	TTL time.Duration
	// Clock measures idleness and recovery time. Nil defaults to a
	// VirtualClock so tests drive eviction deterministically;
	// production passes resilience.NewWallClock().
	Clock resilience.Clock
	// Faults, when non-nil, injects crash/torn-write faults into WAL
	// appends (op "wal.append"). Leave nil in production.
	Faults WriteFaults
	// NoFsync skips fsync on WAL appends and snapshots — benchmarks
	// only; a production store must keep fsync on for its durability
	// guarantee to mean anything.
	NoFsync bool
	// Versions, when non-nil, maintains content-addressed version
	// roots for transcripts (per committed turn) and shard snapshots
	// (per compaction) — see versioned.go. Version maintenance never
	// fails user traffic; its errors surface via DeferredError/Close.
	Versions *vstore.Store
}

func (cfg Config) withDefaults() Config {
	if cfg.Shards <= 0 {
		cfg.Shards = 8
	}
	// Round up to a power of two so the shard index is a mask, not a
	// modulo, and resharding math stays trivial.
	n := 1
	for n < cfg.Shards {
		n <<= 1
	}
	cfg.Shards = n
	if cfg.SnapshotEvery <= 0 {
		cfg.SnapshotEvery = 256
	}
	if cfg.Clock == nil {
		cfg.Clock = resilience.NewVirtualClock()
	}
	return cfg
}

// Store is the sharded session store. Safe for concurrent use.
type Store struct {
	cfg   Config
	clock resilience.Clock

	mu      sync.Mutex // guards nextNum
	nextNum int

	shards []*shard
}

// shard owns one slice of the id space: its sessions, tombstones,
// WAL, and snapshot file. All fields below mu are guarded by it.
type shard struct {
	snapPath string
	// idx is this shard's index; versions is the shared vstore (nil
	// when versioning is off). Both are set once at Open, before any
	// concurrent use.
	idx      int
	versions *vstore.Store

	mu         sync.Mutex
	sessions   map[string]*Entry
	tombstones map[string]bool
	wal        *framelog.Log
	maxNum     int
	pending    int // WAL records since the last snapshot
	snapEvery  int
	nosync     bool
	// shipBase is the ship sequence at the last snapshot horizon; tail
	// holds the framed bytes of every record since, mirroring the
	// on-disk WAL, so replication pulls serve committed frames without
	// re-reading disk. remoteSeq is the highest primary cursor seen by
	// ApplyBatch (replicas only), for lag reporting.
	shipBase  int64
	tail      [][]byte
	remoteSeq int64
	// compactErr holds the most recent snapshot-compaction failure.
	// Compaction is an optimization — user traffic must not fail when
	// it does — so the error is retried on later commits and surfaced
	// by DeferredError (once: compactSaid) and at Close.
	compactErr  error
	compactSaid bool
	// versionErr holds the most recent version-maintenance failure
	// (see versioned.go); same policy as compactErr.
	versionErr error
}

// Entry is one live session. The turn lock (Do) serializes turns
// within the session; committed/focus/lastActive/tree are guarded by the
// owning shard's mutex and describe only durably-committed state, so
// snapshot compaction never observes a half-applied turn.
type Entry struct {
	ID  string
	num int

	mu   sync.Mutex
	sess *dialogue.Session

	committed  []turnRec
	focus      string
	lastActive time.Duration
	// tree is committed's version tree as of the last session version
	// this Entry committed (versioned.go); nil until it commits one, so
	// a recovered or installed session pays one full encode.
	tree *sessionTree
}

// snap is the entry's committed state. Caller holds the shard's mutex.
func (e *Entry) snap() sessionSnap {
	return sessionSnap{ID: e.ID, Num: e.num, Focus: e.focus, Turns: e.committed, tree: e.tree}
}

// Do runs fn with the session's turn lock held. All reads and writes
// of the dialogue session — Respond, transcript rendering, and the
// CommitTurn that persists the produced pair — must happen inside fn
// so turns within one session stay strictly serialized.
func (e *Entry) Do(fn func(sess *dialogue.Session) error) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return fn(e.sess)
}

// NewMemory builds a memory-only store (no durability). It cannot
// fail: there is no directory to open.
func NewMemory(cfg Config) *Store {
	cfg.Dir = ""
	st, err := Open(cfg)
	if err != nil {
		// Unreachable: every error path in Open touches the data
		// directory, and there is none.
		// cdalint:ignore bare-panic -- impossible-by-construction guard.
		panic(fmt.Sprintf("sessionstore: memory-only open failed: %v", err))
	}
	return st
}

// Open builds a store over cfg.Dir, recovering every shard: snapshot
// first, then the WAL replayed over it, torn tail truncated. With
// cfg.Versions the same pass is the version journal's redo: a session
// whose root is behind its recovered transcript — the journal lost an
// unflushed tail to a power cut — gets its version committed again,
// after the snapshot and after each replayed turn record (replay).
func Open(cfg Config) (*Store, error) {
	cfg = cfg.withDefaults()
	st := &Store{cfg: cfg, clock: cfg.Clock, shards: make([]*shard, cfg.Shards)}
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("sessionstore: create data dir: %w", err)
		}
	}
	for i := range st.shards {
		sh := &shard{
			idx:        i,
			versions:   cfg.Versions,
			sessions:   map[string]*Entry{},
			tombstones: map[string]bool{},
			snapEvery:  cfg.SnapshotEvery,
			nosync:     cfg.NoFsync,
		}
		st.shards[i] = sh
		if cfg.Dir == "" {
			continue
		}
		sh.snapPath = filepath.Join(cfg.Dir, fmt.Sprintf("shard-%02d.snap", i))
		snap, err := readSnapshot(sh.snapPath)
		if err != nil {
			return nil, err
		}
		sh.applySnapshot(snap, st.clock.Now())
		for _, ss := range snap.Sessions {
			sh.keepVersion(sh.sessions[ss.ID])
		}
		sh.shipBase = snap.ShipSeq
		sh.wal, err = framelog.Open(
			filepath.Join(cfg.Dir, fmt.Sprintf("shard-%02d.wal", i)), walMagic,
			framelog.Options{Op: "wal.append", Faults: cfg.Faults, NoSync: cfg.NoFsync},
			func(frame, payload []byte) bool {
				rec, ok := decodeRecord(payload)
				if ok {
					sh.replay(rec, st.clock.Now())
					sh.tail = append(sh.tail, frame)
				}
				return ok
			})
		if err != nil {
			return nil, err
		}
		sh.pending = len(sh.tail)
		if sh.maxNum > st.nextNum {
			st.nextNum = sh.maxNum
		}
	}
	return st, nil
}

// applySnapshot installs a shard snapshot (recovery only; no lock
// needed, the shard is not yet shared).
func (sh *shard) applySnapshot(snap snapshot, now time.Duration) {
	sh.maxNum = snap.MaxNum
	for _, ss := range snap.Sessions {
		e := &Entry{ID: ss.ID, num: ss.Num, sess: dialogue.NewSession(),
			focus: ss.Focus, lastActive: now}
		for _, tr := range ss.Turns {
			appendTurn(e, tr)
		}
		e.sess.Focus = ss.Focus
		sh.sessions[ss.ID] = e
		if ss.Num > sh.maxNum {
			sh.maxNum = ss.Num
		}
	}
	for _, id := range snap.Tombstones {
		sh.tombstones[id] = true
	}
}

// replay applies one WAL record over the recovered state — at Open, and
// on a replica for every shipped frame — and keeps the session version a
// turn record produces, so recovery and shipping leave one version per
// replayed pair exactly as CommitTurn does. Records the snapshot already
// folded in are skipped by transcript index, so a crash between snapshot
// publication and WAL truncation is harmless.
func (sh *shard) replay(rec walRecord, now time.Duration) {
	switch rec.Kind {
	case "create":
		if rec.Num > sh.maxNum {
			sh.maxNum = rec.Num
		}
		if sh.tombstones[rec.ID] {
			return
		}
		if _, ok := sh.sessions[rec.ID]; ok {
			return
		}
		sh.sessions[rec.ID] = &Entry{ID: rec.ID, num: rec.Num,
			sess: dialogue.NewSession(), lastActive: now}
	case "turn":
		e, ok := sh.sessions[rec.ID]
		if !ok || len(e.committed) != rec.Seq {
			return
		}
		for _, tr := range rec.Turns {
			appendTurn(e, tr)
		}
		e.focus = rec.Focus
		e.sess.Focus = rec.Focus
		sh.keepVersion(e)
	case "evict":
		delete(sh.sessions, rec.ID)
		sh.tombstones[rec.ID] = true
	}
}

// appendTurn applies one persisted turn to both the committed record
// and the live dialogue session.
func appendTurn(e *Entry, tr turnRec) {
	e.committed = append(e.committed, tr)
	e.sess.Turns = append(e.sess.Turns, dialogue.Turn{
		Role:       dialogue.ParseRole(tr.Role),
		Text:       tr.Text,
		Intent:     dialogue.ParseIntent(tr.Intent),
		Confidence: tr.Confidence,
	})
}

// fnv32a hashes a session id (FNV-1a) for shard placement.
func fnv32a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// ShardIndexFor maps a session id to its shard in a store with the
// given power-of-two shard count — exported so the cluster router can
// compute shard placement for remote stores it only reaches over the
// wire (the hash is part of the replication protocol: primary and
// replica must agree on it).
func ShardIndexFor(id string, shards int) int {
	return int(fnv32a(id)) & (shards - 1)
}

// ShardIndex maps a session id to its shard (power-of-two mask).
func (s *Store) ShardIndex(id string) int {
	return ShardIndexFor(id, len(s.shards))
}

// Shards reports the shard count.
func (s *Store) Shards() int { return len(s.shards) }

// Len reports the number of live sessions across all shards.
func (s *Store) Len() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += len(sh.sessions)
		sh.mu.Unlock()
	}
	return n
}

// appendRecord frames rec, writes it durably to the WAL (when one is
// configured), and retains the frame in the replication tail. Caller
// holds sh.mu.
func (sh *shard) appendRecord(rec walRecord) error {
	buf, err := encodeRecord(rec)
	if err != nil {
		return err
	}
	if sh.wal != nil {
		if err := sh.wal.Append(buf); err != nil {
			return err
		}
	}
	sh.tail = append(sh.tail, buf)
	sh.pending++
	return nil
}

// ErrSessionExists is returned by NewSessionWithID when the id is
// already live (or tombstoned) on this store.
var ErrSessionExists = errors.New("sessionstore: session id already exists")

// NewSession allocates the next session id, logs its creation, and
// returns the live entry.
func (s *Store) NewSession() (*Entry, error) {
	s.mu.Lock()
	s.nextNum++
	num := s.nextNum
	s.mu.Unlock()
	return s.createSession(fmt.Sprintf("s%04d", num), num)
}

// NewSessionWithID creates a session under a caller-chosen id — the
// cluster router picks ids up front so consistent-hash placement can
// route every later request from the id alone. Ids already live or
// tombstoned fail with ErrSessionExists; the internal numeric horizon
// still advances so MaxNum bookkeeping stays monotone.
func (s *Store) NewSessionWithID(id string) (*Entry, error) {
	if id == "" {
		return nil, errors.New("sessionstore: empty session id")
	}
	s.mu.Lock()
	s.nextNum++
	num := s.nextNum
	s.mu.Unlock()
	return s.createSession(id, num)
}

func (s *Store) createSession(id string, num int) (*Entry, error) {
	sh := s.shards[s.ShardIndex(id)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.tombstones[id] {
		return nil, fmt.Errorf("%w: %s (tombstoned)", ErrSessionExists, id)
	}
	if _, ok := sh.sessions[id]; ok {
		return nil, fmt.Errorf("%w: %s", ErrSessionExists, id)
	}
	if err := sh.appendRecord(walRecord{Kind: "create", ID: id, Num: num}); err != nil {
		return nil, err
	}
	e := &Entry{ID: id, num: num, sess: dialogue.NewSession(), lastActive: s.clock.Now()}
	sh.sessions[id] = e
	if num > sh.maxNum {
		sh.maxNum = num
	}
	sh.compactIfDue()
	return e, nil
}

// Get looks a session up, lazily evicting it when it has sat idle
// past the TTL (the deterministic, clock-driven path; SweepIdle is
// the proactive one). A Found lookup refreshes the idle timer.
func (s *Store) Get(id string) (*Entry, GetStatus) {
	sh := s.shards[s.ShardIndex(id)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.tombstones[id] {
		return nil, Gone
	}
	e, ok := sh.sessions[id]
	if !ok {
		return nil, NotFound
	}
	now := s.clock.Now()
	if s.cfg.TTL > 0 && now-e.lastActive > s.cfg.TTL {
		if err := sh.evict(e); err == nil {
			return nil, Gone
		}
		// The eviction record could not be logged (disk trouble, or an
		// injected crash). Prefer availability: keep serving the
		// session rather than evicting it in memory only and having it
		// resurrect after a restart.
	}
	e.lastActive = now
	return e, Found
}

// CommitTurn durably persists the most recent user/system turn pair
// of e's transcript. It MUST be called inside e.Do, immediately after
// a successful Respond, so the pair under commit cannot move. When
// the WAL append fails the pair is rolled back from the in-memory
// transcript — memory never claims a turn disk does not hold — and
// the error is returned for the caller to surface (the client simply
// re-asks).
func (s *Store) CommitTurn(e *Entry) error {
	sh := s.shards[s.ShardIndex(e.ID)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	n := len(e.sess.Turns)
	if n < 2 {
		return errors.New("sessionstore: no committed turn pair to persist")
	}
	if sh.sessions[e.ID] != e {
		// Evicted between Get and commit (TTL race): drop the pair and
		// tell the caller the session is gone.
		e.sess.Turns = e.sess.Turns[:n-2]
		return fmt.Errorf("sessionstore: session %s evicted mid-turn", e.ID)
	}
	pair := []turnRec{encodeTurn(e.sess.Turns[n-2]), encodeTurn(e.sess.Turns[n-1])}
	rec := walRecord{Kind: "turn", ID: e.ID, Seq: len(e.committed),
		Focus: e.sess.Focus, Turns: pair}
	if err := sh.appendRecord(rec); err != nil {
		e.sess.Turns = e.sess.Turns[:n-2]
		return err
	}
	e.committed = append(e.committed, pair...)
	e.focus = e.sess.Focus
	e.lastActive = s.clock.Now()
	sh.commitSessionVersion(sh.versions, e)
	sh.compactIfDue()
	return nil
}

// encodeTurn converts a dialogue turn to its persisted form.
func encodeTurn(t dialogue.Turn) turnRec {
	tr := turnRec{Role: t.Role.String(), Text: t.Text, Confidence: t.Confidence}
	if t.Role == dialogue.RoleUser {
		tr.Intent = t.Intent.String()
	}
	return tr
}

// evict logs the eviction, then removes the session and leaves a
// tombstone. Caller holds sh.mu.
func (sh *shard) evict(e *Entry) error {
	if err := sh.appendRecord(walRecord{Kind: "evict", ID: e.ID}); err != nil {
		return err
	}
	delete(sh.sessions, e.ID)
	sh.tombstones[e.ID] = true
	sh.compactIfDue()
	return nil
}

// SweepIdle proactively evicts every session idle past the TTL,
// returning how many were evicted and the first eviction error (later
// shards are still swept). With TTL zero it is a no-op.
func (s *Store) SweepIdle() (int, error) {
	if s.cfg.TTL <= 0 {
		return 0, nil
	}
	now := s.clock.Now()
	evicted := 0
	var firstErr error
	for _, sh := range s.shards {
		sh.mu.Lock()
		// Deterministic eviction order: sorted ids, not map order, so
		// two sweeps of identical stores write identical WAL suffixes.
		var idle []string
		for id, e := range sh.sessions {
			if now-e.lastActive > s.cfg.TTL {
				idle = append(idle, id)
			}
		}
		sort.Strings(idle)
		for _, id := range idle {
			if err := sh.evict(sh.sessions[id]); err != nil {
				if firstErr == nil {
					firstErr = err
				}
				break
			}
			evicted++
		}
		sh.mu.Unlock()
	}
	return evicted, firstErr
}

// compactIfDue snapshots the shard when enough WAL records have
// accumulated. Caller holds sh.mu. Failures are remembered, not
// propagated: the commit that triggered compaction is already durable
// in the WAL, so user traffic continues and the error resurfaces at
// the next cadence and at Close.
func (sh *shard) compactIfDue() {
	if sh.pending < sh.snapEvery {
		return
	}
	if sh.wal == nil {
		// Memory-only: there is no WAL to fold, but the replication tail
		// must not grow without bound. Advancing the ship horizon drops
		// the retained frames; a replica behind it gets a snapshot
		// transfer built from live state instead.
		sh.shipBase = sh.cursor()
		sh.tail = nil
		sh.pending = 0
		return
	}
	if err := sh.compact(); err != nil {
		sh.compactErr, sh.compactSaid = err, false
	}
}

// sessionIDs lists the shard's live session ids, sorted: the one order
// everything that walks a shard's sessions uses, so snapshots, version
// stamps and eviction records come out the same on every run. Caller
// holds sh.mu.
func (sh *shard) sessionIDs() []string {
	ids := make([]string, 0, len(sh.sessions))
	for id := range sh.sessions {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// buildSnapshot renders the shard's committed state as a snapshot
// document, stamped with the current ship cursor. Caller holds sh.mu.
func (sh *shard) buildSnapshot() snapshot {
	snap := snapshot{MaxNum: sh.maxNum, ShipSeq: sh.cursor()}
	for _, id := range sh.sessionIDs() {
		snap.Sessions = append(snap.Sessions, sh.sessions[id].snap())
	}
	for id := range sh.tombstones {
		snap.Tombstones = append(snap.Tombstones, id)
	}
	sort.Strings(snap.Tombstones)
	return snap
}

// compact folds the shard into a fresh snapshot and truncates the
// WAL — the checkpoint: the version journal is flushed first, because
// the WAL about to go is what could rebuild its unflushed session
// versions, and a journal that cannot be flushed refuses the compaction
// (the WAL is kept). The ship horizon advances with the snapshot:
// replicas behind it will be served a snapshot transfer instead of
// frames. Caller holds sh.mu.
func (sh *shard) compact() error {
	if sh.wal == nil || sh.wal.Dead() {
		return nil
	}
	if err := sh.flushVersions(); err != nil {
		return err
	}
	snap := sh.buildSnapshot()
	if err := writeSnapshot(sh.snapPath, snap, sh.nosync); err != nil {
		return err
	}
	if err := sh.wal.Reset(); err != nil {
		return err
	}
	sh.shipBase = snap.ShipSeq
	sh.tail = nil
	sh.pending = 0
	sh.compactErr = nil
	sh.commitShardVersion(sh.versions, sh.idx, snap)
	return nil
}

// Compact forces a snapshot of every shard (graceful shutdown, tests).
func (s *Store) Compact() error {
	var errs []error
	for _, sh := range s.shards {
		sh.mu.Lock()
		if sh.wal != nil && sh.pending > 0 {
			if err := sh.compact(); err != nil {
				errs = append(errs, err)
			}
		}
		sh.mu.Unlock()
	}
	return errors.Join(errs...)
}

// Close compacts what is pending, closes every WAL, and reports any
// compaction failure that was deferred off the commit path.
func (s *Store) Close() error {
	var errs []error
	for _, sh := range s.shards {
		sh.mu.Lock()
		if sh.wal != nil {
			if sh.pending > 0 {
				if err := sh.compact(); err != nil {
					errs = append(errs, err)
				}
			}
			if err := sh.wal.Close(); err != nil {
				errs = append(errs, err)
			}
		}
		if sh.compactErr != nil {
			errs = append(errs, sh.compactErr)
			sh.compactErr = nil
		}
		if sh.versionErr != nil {
			errs = append(errs, sh.versionErr)
			sh.versionErr = nil
		}
		sh.mu.Unlock()
	}
	return errors.Join(errs...)
}

// Transcript renders a session's transcript canonically — one line
// per turn, confidences in exact shortest form — so recovery tests
// can assert byte identity between pre-crash and recovered state.
// Callers synchronize access themselves (Entry.Do).
func Transcript(sess *dialogue.Session) string {
	var sb strings.Builder
	for i, t := range sess.Turns {
		fmt.Fprintf(&sb, "%03d %s", i, t.Role)
		if t.Role == dialogue.RoleUser {
			fmt.Fprintf(&sb, " intent=%s", t.Intent)
		} else {
			fmt.Fprintf(&sb, " conf=%s", strconv.FormatFloat(t.Confidence, 'g', -1, 64))
		}
		sb.WriteString(" | ")
		sb.WriteString(t.Text)
		sb.WriteByte('\n')
	}
	return sb.String()
}
