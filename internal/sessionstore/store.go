// Package sessionstore is the durable, sharded home of conversation
// state. The paper's Figure 1 dialogue treats the accumulated
// transcript — turns, intent annotations, confidences — as a
// first-class artifact the user returns to, so sessions must outlive
// the serving process: every committed turn pair is appended to a
// per-shard write-ahead log before the commit is acknowledged, and
// periodic compaction folds the log into the shard's root in the
// version store so recovery stays O(recent traffic), not O(history).
//
// Layout on disk under Config.Dir:
//
//	shard-00.wal    append-only framed log of records since the checkpoint
//	vstore/         the version store (internal/vstore): a root per
//	                session, and per shard the root that is its checkpoint
//
// The WAL is written through internal/framelog, the module's one frame
// codec and torn-tail log; this package owns only what the bytes mean —
// the record schema, the trees of versioned.go, and their replay.
// Recovery loads the head of the shard's root, replays the WAL over it
// (idempotent: turn records carry their transcript index), and the log
// truncates any torn tail left by a crash mid-append — so a recovered
// transcript is byte-identical to the committed prefix at the moment of
// the crash. That layout is the only one Open reads: a directory older
// than it — a shard-00.snap, the JSON checkpoint older stores wrote, or
// a version store older than the journal's format — is a
// *vstore.FormatError, and Open leaves it as it found it.
// The chaos harness (internal/chaos) property-tests exactly that
// under seeded crash/torn-write faults from internal/faults.
//
// Sessions are spread across a power-of-two number of shards by FNV-1a
// hash of the session id; each shard has its own mutex, WAL, and
// compaction cadence, so commit traffic on one shard never serializes
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
	// (no WAL, nothing survives restart).
	Dir string
	// Shards is the shard count, rounded up to the next power of two
	// (default 8).
	Shards int
	// SnapshotEvery is the per-shard WAL record count between
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
	// NoFsync skips fsync on WAL appends — benchmarks only; a
	// production store must keep fsync on for its durability guarantee
	// to mean anything.
	NoFsync bool
	// Versions holds the content-addressed version roots of transcripts
	// (per committed turn) and shards (per compaction, the checkpoint) —
	// see versioned.go. Nil opens <Dir>/vstore, or a memory-only store
	// when Dir is empty, which Close closes; a store passed here is the
	// caller's to close. A session version never fails user traffic; its
	// errors surface via DeferredError/Close.
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
	// ownsVersions: Open opened cfg.Versions, and Close closes it.
	ownsVersions bool
}

// shard owns one slice of the id space: its sessions, tombstones,
// WAL, and shard root. All fields below mu are guarded by it.
type shard struct {
	// idx is this shard's index; versions is the store's vstore. Both
	// are set once at Open, before any concurrent use.
	idx      int
	versions *vstore.Store

	mu         sync.Mutex
	sessions   map[string]*Entry
	tombstones map[string]bool
	wal        *framelog.Log
	maxNum     int
	pending    int // WAL records since the last compaction
	snapEvery  int
	nosync     bool
	// shipBase is the ship sequence at the last compaction horizon; tail
	// holds the framed bytes of every record since, mirroring the
	// on-disk WAL, so replication pulls serve committed frames without
	// re-reading disk. remoteSeq is the highest primary cursor seen by
	// ApplyBatch (replicas only), for lag reporting.
	shipBase  int64
	tail      [][]byte
	remoteSeq int64
	// compactErr holds the most recent compaction failure.
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
// compaction never observes a half-applied turn.
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

// Open builds a store over cfg.Dir, recovering every shard: the head
// of its shard root first, then the WAL replayed over it, torn tail
// truncated. The same pass is the version journal's redo: a session
// whose root is behind its recovered transcript — the journal lost an
// unflushed tail to a power cut — gets its version committed again,
// after the checkpoint and after each replayed turn record (replay). A
// directory holding a shard-NN.snap is a *vstore.FormatError, found
// before anything is opened or created in it.
func Open(cfg Config) (*Store, error) {
	cfg = cfg.withDefaults()
	st := &Store{cfg: cfg, clock: cfg.Clock, shards: make([]*shard, cfg.Shards)}
	if cfg.Dir != "" {
		if err := refuseSnapshots(cfg.Dir); err != nil {
			return nil, err
		}
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("sessionstore: create data dir: %w", err)
		}
	}
	if cfg.Versions == nil {
		dir := ""
		if cfg.Dir != "" {
			dir = filepath.Join(cfg.Dir, "vstore")
		}
		vs, err := vstore.Open(vstore.Config{Dir: dir})
		if err != nil {
			return nil, fmt.Errorf("sessionstore: open version store: %w", err)
		}
		st.cfg.Versions, st.ownsVersions = vs, true
	}
	for i := range st.shards {
		st.shards[i] = &shard{
			idx:        i,
			versions:   st.cfg.Versions,
			sessions:   map[string]*Entry{},
			tombstones: map[string]bool{},
			snapEvery:  cfg.SnapshotEvery,
			nosync:     cfg.NoFsync,
		}
		sh := st.shards[i]
		if cfg.Dir == "" {
			continue
		}
		// Nothing else can reach the shard yet; its lock is held so the
		// helpers it shares with serving run under the lock they document.
		sh.mu.Lock()
		err := sh.load(cfg, st.clock.Now())
		maxNum := sh.maxNum
		sh.mu.Unlock()
		if err != nil {
			if st.ownsVersions {
				err = errors.Join(err, st.cfg.Versions.Close())
			}
			return nil, err
		}
		st.nextNum = max(st.nextNum, maxNum)
	}
	return st, nil
}

// refuseSnapshots fails with a *vstore.FormatError if dir holds a
// shard-NN.snap, the JSON checkpoint older stores wrote; a dir that is
// not there holds none.
func refuseSnapshots(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("sessionstore: read data dir: %w", err)
	}
	for _, e := range entries {
		if name := e.Name(); strings.HasPrefix(name, "shard-") && strings.HasSuffix(name, ".snap") {
			return &vstore.FormatError{Path: filepath.Join(dir, name), Format: "a JSON shard snapshot"}
		}
	}
	return nil
}

// load recovers the shard from cfg.Dir: the head of its shard root —
// nothing on a fresh shard — with every loaded session's version kept,
// then the WAL replayed over it. Caller holds sh.mu.
func (sh *shard) load(cfg Config, now time.Duration) error {
	var snap snapshot
	if head, err := sh.versions.Head(ShardRoot(sh.idx)); err == nil {
		if snap, err = decodeShardTree(sh.versions, head.Tree); err != nil {
			return fmt.Errorf("sessionstore: load shard %d root: %w", sh.idx, err)
		}
	} else if !errors.Is(err, vstore.ErrUnknownRoot) {
		return err
	}
	sh.applySnapshot(snap, now)
	for _, ss := range snap.Sessions {
		sh.keepVersion(sh.sessions[ss.ID])
	}
	sh.shipBase = snap.ShipSeq
	var err error
	sh.wal, err = framelog.Open(
		filepath.Join(cfg.Dir, fmt.Sprintf("shard-%02d.wal", sh.idx)), walMagic,
		framelog.Options{Op: "wal.append", Faults: cfg.Faults, NoSync: cfg.NoFsync},
		func(frame, payload []byte) bool {
			rec, ok := decodeRecord(payload)
			if ok {
				sh.replay(rec, now)
				sh.tail = append(sh.tail, frame)
			}
			return ok
		})
	sh.pending = len(sh.tail)
	return err
}

// applySnapshot installs a shard's state (recovery and snapshot install;
// the caller holds sh.mu or is Open).
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
// replayed pair exactly as CommitTurn does. Records the checkpoint
// already folded in are skipped by transcript index, so a crash between
// a shard root's commit and the WAL's truncation is harmless.
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
	sh.commitSessionVersion(e)
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

// compactIfDue compacts the shard when enough WAL records have
// accumulated. Caller holds sh.mu. Failures are remembered, not
// propagated: the commit that triggered compaction is already durable
// in the WAL, so user traffic continues and the error resurfaces at
// the next cadence and at Close.
func (sh *shard) compactIfDue() {
	if sh.pending < sh.snapEvery {
		return
	}
	if err := sh.compact(); err != nil {
		sh.compactErr, sh.compactSaid = err, false
	}
}

// sessionIDs lists the shard's live session ids, sorted: the one order
// everything that walks a shard's sessions uses, so shard trees, version
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

// buildSnapshot renders the shard's committed state, stamped with the
// current ship cursor. Caller holds sh.mu.
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

// compact folds the shard into its shard root and then truncates the
// WAL — the checkpoint. The root's commit is a flushed journal append,
// so it flushes the session versions written before it, which the WAL
// about to go is what could rebuild; a journal that cannot take it
// refuses the compaction, and the WAL is kept. The ship horizon advances
// with the root: replicas behind it are shipped the root instead of
// frames. A memory-only shard does the same with nothing to truncate, so
// its replication tail stays bounded. Caller holds sh.mu.
func (sh *shard) compact() error {
	if sh.wal != nil && sh.wal.Dead() {
		return nil
	}
	snap := sh.buildSnapshot()
	if err := sh.commitShardVersion(snap); err != nil {
		return fmt.Errorf("sessionstore: shard %d keeps its WAL: %w", sh.idx, err)
	}
	if sh.wal != nil {
		if err := sh.wal.Reset(); err != nil {
			return err
		}
	}
	sh.shipBase = snap.ShipSeq
	sh.tail = nil
	sh.pending = 0
	sh.compactErr = nil
	return nil
}

// Compact compacts every shard with records since its last compaction
// (graceful shutdown, tests).
func (s *Store) Compact() error {
	var errs []error
	for _, sh := range s.shards {
		sh.mu.Lock()
		if sh.pending > 0 {
			if err := sh.compact(); err != nil {
				errs = append(errs, err)
			}
		}
		sh.mu.Unlock()
	}
	return errors.Join(errs...)
}

// Close compacts what is pending, closes every WAL and a version store
// Open opened, and reports any failure that was deferred off the commit
// path.
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
	if s.ownsVersions {
		errs = append(errs, s.cfg.Versions.Close())
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
