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
// than it — a shard-00.snap, the JSON checkpoint older stores wrote, a
// WAL holding the JSON records they logged, or a version store older
// than the journal's format — is a *vstore.FormatError, and Open leaves
// it as it found it.
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
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/reliable-cda/cda/internal/dialogue"
	"github.com/reliable-cda/cda/internal/framelog"
	"github.com/reliable-cda/cda/internal/obs"
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
	snapEvery  int
	// shipBase is the ship sequence at the last compaction horizon; tail
	// holds the framed bytes of every record since, mirroring the
	// on-disk WAL, so replication pulls serve committed frames without
	// re-reading disk, and its length is the count of records the next
	// compaction folds. remoteSeq is the highest primary cursor seen by
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

// Entry is one live session. committed/focus/lastActive/tree/current
// are guarded by the owning shard's mutex and describe only
// durably-committed state, so compaction and history reads never observe
// a half-applied turn; they are all the store writes. The turn lock (Do)
// serializes turns within the session and guards sess, the dialogue
// session a turn runs on, which is derived state: Do rebuilds it from
// the committed state whenever current says it is no longer that. Lock
// order: the turn lock, then the shard's.
type Entry struct {
	ID  string
	num int
	sh  *shard

	mu   sync.Mutex
	sess *dialogue.Session

	committed  []dialogue.Turn
	focus      string
	lastActive time.Duration
	// tree is committed's version tree as of the last session version
	// this Entry committed (versioned.go); nil until it commits one, so
	// a recovered or installed session pays one full encode.
	tree *sessionTree
	// current: Do rebuilt sess from the committed state, and only turns
	// that committed have changed either since. Every other write of
	// committed state, and a commit that fails, clears it.
	current bool
}

// snap is the entry's committed state. Caller holds the shard's mutex.
func (e *Entry) snap() sessionSnap {
	return sessionSnap{ID: e.ID, Num: e.num, Focus: e.focus, Turns: e.committed, tree: e.tree}
}

// Do runs fn with the session's turn lock held, on the session's
// dialogue state, rebuilt from its committed turns and focus first when
// those have moved without it. All reads and writes of the dialogue
// session — Respond and the CommitTurn that persists the produced pair —
// must happen inside fn so turns within one session stay strictly
// serialized.
func (e *Entry) Do(fn func(sess *dialogue.Session) error) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.sh.mu.Lock()
	if !e.current {
		e.sess, e.current = e.snap().session(), true
	}
	e.sh.mu.Unlock()
	return fn(e.sess)
}

// Turns copies at most limit turns of the session's committed
// transcript from offset on, and returns them with its length; neither
// may be negative. It takes only the shard's lock, so a history read
// never waits behind a turn in flight.
func (e *Entry) Turns(offset, limit int) ([]dialogue.Turn, int) {
	e.sh.mu.Lock()
	defer e.sh.mu.Unlock()
	n := len(e.committed)
	lo := min(offset, n)
	return slices.Clone(e.committed[lo : lo+min(limit, n-lo)]), n
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

// ErrShardCount refuses a data directory laid out under another shard
// count, where a session would be looked for in the wrong shard.
var ErrShardCount = errors.New("sessionstore: the data directory has another shard count")

// Open builds a store over cfg.Dir, recovering every shard: the head
// of its shard root first, then the WAL replayed over it, torn tail
// truncated. The same pass is the version journal's redo: a session
// whose root is behind its recovered transcript — the journal lost an
// unflushed tail to a power cut — gets its version committed again,
// after the checkpoint and after each replayed turn record (replay). A
// directory holding a shard-NN.snap or a WAL of JSON records is a
// *vstore.FormatError, and one laid out under another shard count is
// ErrShardCount; both are found before anything in it changes.
func Open(cfg Config) (*Store, error) {
	cfg = cfg.withDefaults()
	st := &Store{cfg: cfg, clock: cfg.Clock, shards: make([]*shard, cfg.Shards)}
	dirShards := 0
	if cfg.Dir != "" {
		var err error
		if dirShards, err = checkLayout(cfg.Dir, cfg.Shards); err != nil {
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
		}
	}
	if cfg.Dir == "" {
		return st, nil
	}
	// Every shard root is read, and its sessions' placement checked,
	// before any shard loads: loading one can change the directory.
	roots, snaps := make([]vstore.Hash, cfg.Shards), make([]snapshot, cfg.Shards)
	for i := range st.shards {
		var err error
		if roots[i], snaps[i], err = readRoot(st.cfg.Versions, i, cfg.Shards, dirShards); err != nil {
			return nil, st.abandon(err)
		}
	}
	for i, sh := range st.shards {
		// Nothing else can reach the shard yet; its lock is held so the
		// helpers it shares with serving run under the lock they document.
		sh.mu.Lock()
		err := sh.load(cfg, roots[i], snaps[i], st.clock.Now())
		maxNum := sh.maxNum
		sh.mu.Unlock()
		if err != nil {
			return nil, st.abandon(err)
		}
		st.nextNum = max(st.nextNum, maxNum)
	}
	return st, nil
}

// abandon closes what a failed Open opened, every WAL and a version
// store it owns, and returns err joined with what closing them said.
func (s *Store) abandon(err error) error {
	errs := []error{err}
	for _, sh := range s.shards {
		sh.mu.Lock()
		if sh.wal != nil {
			errs = append(errs, sh.wal.Close())
		}
		sh.mu.Unlock()
	}
	if s.ownsVersions {
		errs = append(errs, s.cfg.Versions.Close())
	}
	return errors.Join(errs...)
}

// walPath is shard's WAL in dir.
func walPath(dir string, shard int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%02d.wal", shard))
}

// checkLayout reads dir before anything opens in it and returns the
// shard count its WALs were written under: every shard's WAL is created
// at Open, so one more than the highest. A shard-NN.snap, the JSON
// checkpoint older stores wrote, or a WAL with a whole frame of the
// JSON records they logged is a *vstore.FormatError; a WAL at or beyond
// shards, or a record of a session that belongs in another shard under
// shards, is ErrShardCount. The log would take an old frame for a torn
// tail and truncate it, acknowledged turns and all, so this runs first.
func checkLayout(dir string, shards int) (int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil && !os.IsNotExist(err) {
		return 0, fmt.Errorf("sessionstore: read data dir: %w", err)
	}
	dirShards := 0
	for _, e := range entries {
		name, n := e.Name(), 0
		if strings.HasPrefix(name, "shard-") && strings.HasSuffix(name, ".snap") {
			return 0, &vstore.FormatError{Path: filepath.Join(dir, name), Format: "a JSON shard snapshot"}
		}
		if _, err := fmt.Sscanf(name, "shard-%d.wal", &n); err == nil && walPath(dir, n) == filepath.Join(dir, name) {
			dirShards = max(dirShards, n+1)
		}
	}
	if dirShards > shards {
		return 0, fmt.Errorf("%w: %s was written under %d shards, not %d", ErrShardCount, walPath(dir, dirShards-1), dirShards, shards)
	}
	for i := range dirShards {
		path := walPath(dir, i)
		raw, err := os.ReadFile(path)
		if err != nil && !os.IsNotExist(err) {
			return 0, fmt.Errorf("sessionstore: read %s: %w", path, err)
		}
		payloads, _ := framelog.Scan(walMagic, raw)
		off := 0
		for _, p := range payloads {
			rec, err := decodeRecord(p)
			if old := (*vstore.FormatError)(nil); errors.As(err, &old) {
				old.Path, old.Format = path, fmt.Sprintf("%s (the frame at offset %d)", old.Format, off)
				return 0, old
			}
			if err == nil && ShardIndexFor(rec.ID, shards) != i {
				return 0, misplaced(rec.ID, path, shards, dirShards)
			}
			off += framelog.HeaderSize + len(p)
		}
	}
	return dirShards, nil
}

// misplaced is the ErrShardCount for session id, found in where.
func misplaced(id, where string, shards, dirShards int) error {
	return fmt.Errorf("%w: session %s in %s was written under %d shards; under %d it belongs in shard %d",
		ErrShardCount, id, where, dirShards, shards, ShardIndexFor(id, shards))
}

// readRoot returns the head of shard's root in vs and the state its tree
// holds, neither on a fresh shard, and is ErrShardCount when a session
// in it belongs in another shard under shards.
func readRoot(vs *vstore.Store, shard, shards, dirShards int) (vstore.Hash, snapshot, error) {
	head, err := vs.Head(ShardRoot(shard))
	if errors.Is(err, vstore.ErrUnknownRoot) {
		return "", snapshot{}, nil
	} else if err != nil {
		return "", snapshot{}, err
	}
	snap, err := decodeShardTree(vs, head.Tree)
	if err != nil {
		return "", snapshot{}, fmt.Errorf("sessionstore: load shard %d root: %w", shard, err)
	}
	for _, ss := range snap.Sessions {
		if ShardIndexFor(ss.ID, shards) != shard {
			return "", snapshot{}, misplaced(ss.ID, "shard root "+ShardRoot(shard), shards, dirShards)
		}
	}
	return head.Hash, snap, nil
}

// load recovers the shard from cfg.Dir: snap, the state of its shard
// root's head root — nothing on a fresh shard — with every loaded
// session's version kept, then the WAL replayed over it. A record at or
// below the root's ship sequence is one the root holds — a crash came
// between a compaction's root commit and its WAL reset — and is neither
// replayed nor counted; a WAL the root holds entirely is reset here.
// Every other record must extend the cursor by one. Caller holds sh.mu.
func (sh *shard) load(cfg Config, root vstore.Hash, snap snapshot, now time.Duration) error {
	if err := sh.installRoot(root, snap, now); err != nil {
		return err
	}
	path := walPath(cfg.Dir, sh.idx)
	covered := false // the WAL holds records the root already holds
	var gap, err error
	sh.wal, err = framelog.Open(path, walMagic,
		framelog.Options{Op: "wal.append", Faults: cfg.Faults},
		func(frame, payload []byte) bool {
			if gap != nil {
				return true
			}
			rec, err := decodeRecord(payload)
			switch {
			case err != nil:
				return false
			case rec.Ship <= sh.shipBase:
				covered = true
			case rec.Ship == sh.cursor()+1:
				sh.replay(rec, now)
				sh.tail = append(sh.tail, frame)
			default:
				gap = fmt.Errorf("sessionstore: %s: a record at ship sequence %d follows cursor %d", path, rec.Ship, sh.cursor())
			}
			return true
		})
	switch {
	case err != nil:
	case gap != nil:
		err = gap
	case covered && len(sh.tail) == 0:
		err = sh.wal.Reset()
	}
	return err
}

// installRoot resets the shard to snap, the state of shard root root
// ("" on a fresh shard), and keeps each installed session's version. A
// root the primary shipped is adopted as this shard's own first — a
// flushed journal append, as is the flush after it for the session
// versions the WAL about to go could rebuild — and only then is the WAL
// reset, so the replica's disk recovers to the same cursor. At Open the
// root is the shard's own head, which adopting leaves as it is, and
// there is no WAL yet. Caller holds sh.mu, or is Open.
func (sh *shard) installRoot(root vstore.Hash, snap snapshot, now time.Duration) error {
	if root != "" {
		if _, err := sh.versions.AdoptCommit(ShardRoot(sh.idx), root); err != nil {
			return fmt.Errorf("sessionstore: adopt shard %d root: %w", sh.idx, err)
		}
	}
	if sh.wal != nil {
		if err := sh.flushVersions(); err != nil {
			return err
		}
		if err := sh.wal.Reset(); err != nil {
			return err
		}
	}
	sh.sessions = map[string]*Entry{}
	sh.tombstones = map[string]bool{}
	sh.maxNum = snap.MaxNum
	for _, ss := range snap.Sessions {
		sh.sessions[ss.ID] = &Entry{ID: ss.ID, num: ss.Num, sh: sh,
			committed: ss.Turns, focus: ss.Focus, lastActive: now}
		if ss.Num > sh.maxNum {
			sh.maxNum = ss.Num
		}
	}
	for _, id := range snap.Tombstones {
		sh.tombstones[id] = true
	}
	sh.shipBase = snap.ShipSeq
	sh.tail = nil
	sh.compactErr = nil
	for _, id := range sh.sessionIDs() {
		sh.keepVersion(sh.sessions[id])
	}
	return nil
}

// replay applies one WAL record over the recovered state — at Open, and
// on a replica for every shipped frame — and keeps the session version a
// turn record produces, so recovery and shipping leave one version per
// replayed pair exactly as CommitTurn does. Records the checkpoint
// already folded in are skipped by transcript index, so applying a
// record twice is harmless.
func (sh *shard) replay(rec walRecord, now time.Duration) {
	switch rec.Kind {
	case kindCreate:
		if rec.Num > sh.maxNum {
			sh.maxNum = rec.Num
		}
		if sh.tombstones[rec.ID] {
			return
		}
		if _, ok := sh.sessions[rec.ID]; ok {
			return
		}
		sh.sessions[rec.ID] = &Entry{ID: rec.ID, num: rec.Num, sh: sh, lastActive: now}
	case kindTurn:
		e, ok := sh.sessions[rec.ID]
		if !ok || len(e.committed) != rec.Seq {
			return
		}
		e.committed = append(e.committed, rec.Turns...)
		e.focus, e.current = rec.Focus, false
		// A turn is activity: a replica's idle clock runs from the turns
		// it is shipped, as its primary's runs from the turns it commits.
		e.lastActive = now
		sh.keepVersion(e)
	case kindEvict:
		delete(sh.sessions, rec.ID)
		sh.tombstones[rec.ID] = true
	}
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

// Clock returns the clock the store measures idleness on, which the
// server times a turn's spans by.
func (s *Store) Clock() resilience.Clock { return s.clock }

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

// appendRecord frames rec at the next ship sequence, writes it durably
// to the WAL (when one is configured), counting the append against
// turn, and retains the frame in the replication tail. Caller holds
// sh.mu.
func (sh *shard) appendRecord(turn *obs.Turn, rec walRecord) error {
	rec.Ship = sh.cursor() + 1
	buf, err := encodeRecord(rec)
	if err != nil {
		return err
	}
	if sh.wal != nil {
		end := turn.Start("sessionstore.wal_append")
		err := sh.wal.Append(buf)
		end.End()
		if err != nil {
			return err
		}
		turn.Add(obs.WALFsyncs, 1)
		turn.Add(obs.WALFrames, 1)
		turn.Add(obs.WALBytes, len(buf))
	}
	sh.tail = append(sh.tail, buf)
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
	if err := sh.appendRecord(nil, walRecord{Kind: kindCreate, ID: id, Num: num}); err != nil {
		return nil, err
	}
	e := &Entry{ID: id, num: num, sh: sh, lastActive: s.clock.Now()}
	sh.sessions[id] = e
	if num > sh.maxNum {
		sh.maxNum = num
	}
	sh.compactIfDue(nil)
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
// the WAL append fails nothing committed moves, and the session's next
// Do rebuilds the dialogue session from what did — memory never claims
// a turn disk does not hold — and the error is returned for the caller
// to surface (the client simply re-asks).
func (s *Store) CommitTurn(e *Entry) error { return s.commitTurn(nil, e) }

// CommitTurnContext is CommitTurn that counts what the commit writes —
// the WAL append, the session version, a compaction it sets off —
// against the obs turn ctx carries.
func (s *Store) CommitTurnContext(ctx context.Context, e *Entry) error {
	return s.commitTurn(obs.From(ctx), e)
}

func (s *Store) commitTurn(turn *obs.Turn, e *Entry) error {
	defer turn.Start("sessionstore.commit_turn").End()
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
		e.current = false
		return fmt.Errorf("sessionstore: session %s evicted mid-turn", e.ID)
	}
	pair := []dialogue.Turn{encodeTurn(e.sess.Turns[n-2]), encodeTurn(e.sess.Turns[n-1])}
	rec := walRecord{Kind: kindTurn, ID: e.ID, Seq: len(e.committed),
		Focus: strings.ToValidUTF8(e.sess.Focus, "\uFFFD"), Turns: pair}
	if err := sh.appendRecord(turn, rec); err != nil {
		e.current = false
		return err
	}
	e.committed = append(e.committed, pair...)
	e.focus = rec.Focus
	e.lastActive = s.clock.Now()
	sh.commitSessionVersion(turn, e)
	sh.compactIfDue(turn)
	return nil
}

// encodeTurn is a dialogue turn as it is persisted, which the turn codec
// the WAL and the journal share requires: text that is not valid UTF-8 —
// a served table's bytes may not be — with U+FFFD in place of each
// invalid run, and a system turn without an intent.
func encodeTurn(t dialogue.Turn) dialogue.Turn {
	t.Text = strings.ToValidUTF8(t.Text, "\uFFFD")
	if t.Role == dialogue.RoleSystem {
		t.Intent = dialogue.IntentUnknown
	}
	return t
}

// evict logs the eviction, then removes the session and leaves a
// tombstone. Caller holds sh.mu.
func (sh *shard) evict(e *Entry) error {
	if err := sh.appendRecord(nil, walRecord{Kind: kindEvict, ID: e.ID}); err != nil {
		return err
	}
	delete(sh.sessions, e.ID)
	sh.tombstones[e.ID] = true
	sh.compactIfDue(nil)
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
func (sh *shard) compactIfDue(turn *obs.Turn) {
	if len(sh.tail) < sh.snapEvery {
		return
	}
	if err := sh.compact(turn); err != nil {
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
func (sh *shard) compact(turn *obs.Turn) error {
	if sh.wal != nil && sh.wal.Dead() {
		return nil
	}
	defer turn.Start("sessionstore.compact").End()
	snap := sh.buildSnapshot()
	if err := sh.commitShardVersion(turn, snap); err != nil {
		return fmt.Errorf("sessionstore: shard %d keeps its WAL: %w", sh.idx, err)
	}
	if sh.wal != nil {
		if err := sh.wal.Reset(); err != nil {
			return err
		}
		turn.Add(obs.WALFsyncs, 1)
	}
	sh.shipBase = snap.ShipSeq
	sh.tail = nil
	sh.compactErr = nil
	return nil
}

// Compact compacts every shard with records since its last compaction
// (graceful shutdown, tests).
func (s *Store) Compact() error {
	var errs []error
	for _, sh := range s.shards {
		sh.mu.Lock()
		if len(sh.tail) > 0 {
			if err := sh.compact(nil); err != nil {
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
			if len(sh.tail) > 0 {
				if err := sh.compact(nil); err != nil {
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
