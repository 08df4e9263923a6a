// Package sessionstore is the durable, sharded home of conversation
// state. The paper's Figure 1 dialogue treats the accumulated
// transcript — turns, intent annotations, confidences — as a
// first-class artifact the user returns to, so sessions must outlive
// the serving process: every record — a session's creation, a committed
// turn pair, an eviction — is one flushed append to the version journal
// before it is acknowledged, and that append is the version the
// transcript is read at as of that turn. Periodic compaction commits
// the shard's root, so recovery stays O(recent traffic), not O(history).
//
// Layout on disk under Config.Dir:
//
//	vstore/         the version store (internal/vstore): a root per
//	                session, a version per record, and per shard the
//	                root that is its checkpoint
//
// The journal is the only log. A create is a commit of an empty session
// node at turn 0 on session/<id>, a turn pair the commit of the
// session's tree at its new turn count, and an eviction a mark record on
// session/<id>; versioned.go has the trees. Recovery loads the head of
// each shard's root and replays the shard's session records that follow
// it in journal order — each rebuilt as the record it stands for, with
// the ship sequence its place gives it — and the journal truncates any
// torn tail left by a crash mid-append, so a recovered transcript is
// byte-identical to the acknowledged prefix at the moment of the crash.
// That layout is the only one Open reads: a directory older than it — a
// shard-00.snap, the JSON checkpoint older stores wrote, a shard WAL with
// a record in it, or a version store older than the journal's format —
// is a *vstore.FormatError, and Open leaves it as it found it; an older
// directory whose WALs are empty, as a clean Close leaves them, opens,
// and its WAL files are removed.
// The chaos harness (internal/chaos) property-tests exactly that
// under seeded crash/torn-write faults from internal/faults.
//
// Sessions are spread across a power-of-two number of shards by FNV-1a
// hash of the session id; each shard has its own mutex, replication
// tail, and compaction cadence, so commit traffic on one shard never
// serializes against another, and shards that commit at once share the
// journal's fsyncs. Idle sessions are evicted on a TTL measured on the
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
	// (nothing survives restart).
	Dir string
	// Shards is the shard count, rounded up to the next power of two
	// (default 8).
	Shards int
	// SnapshotEvery is the per-shard record count between compactions
	// (default 256).
	SnapshotEvery int
	// TTL evicts sessions idle longer than this; 0 disables eviction.
	TTL time.Duration
	// Clock measures idleness and recovery time. Nil defaults to a
	// VirtualClock so tests drive eviction deterministically;
	// production passes resilience.NewWallClock().
	Clock resilience.Clock
	// Faults, when non-nil, injects crash/torn-write faults into the
	// journal appends of the version store Open opens (op
	// "vstore.journal"). Leave nil in production.
	Faults WriteFaults
	// Versions holds the content-addressed version roots of transcripts
	// (per record) and shards (per compaction, the checkpoint) — see
	// versioned.go — and so every record. Nil opens <Dir>/vstore, or a
	// memory-only store when Dir is empty, which Close closes; a store
	// passed here is the caller's to close.
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
// replication tail, and shard root. All fields below mu are guarded by it.
type shard struct {
	// idx is this shard's index, of count; versions is the store's
	// vstore. All are set once at Open, before any concurrent use.
	idx, count int
	versions   *vstore.Store

	mu         sync.Mutex
	sessions   map[string]*Entry
	tombstones map[string]bool
	maxNum     int
	snapEvery  int
	// rooted: the journal holds a version of the shard's root, the first
	// of which a shard's first record lands behind (newBatch).
	rooted bool
	// shipBase is the ship sequence at the last compaction horizon; tail
	// holds the framed bytes of every record since, so replication pulls
	// serve committed frames without reading the journal, and its length
	// is the count of records the next compaction folds. remoteSeq is the
	// highest primary cursor seen by ApplyBatch (replicas only), for lag
	// reporting.
	shipBase  int64
	tail      [][]byte
	remoteSeq int64
	// compactErr holds the most recent compaction failure. Compaction
	// is an optimization — user traffic must not fail when it does — so
	// the error is retried on later commits and surfaced by
	// DeferredError (once: compactSaid) and at Close.
	compactErr  error
	compactSaid bool
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
	// tree is committed's version tree as the session's last record left
	// it in the version store (versioned.go); nil on a session a shard
	// root installed, which pays one full encode.
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

// Open builds a store over cfg.Dir, recovering every shard from the
// journal alone: the head of its shard root first, then the shard's
// session records that follow it, in journal order (load). A directory
// holding a shard-NN.snap or a shard WAL with a record in it is a
// *vstore.FormatError, and one laid out under another shard count is
// ErrShardCount; both are found before anything in it changes. The
// empty WALs of an older directory are removed once it has opened.
func Open(cfg Config) (*Store, error) {
	cfg = cfg.withDefaults()
	st := &Store{cfg: cfg, clock: cfg.Clock, shards: make([]*shard, cfg.Shards)}
	var wals []string
	if cfg.Dir != "" {
		var err error
		if wals, err = checkLayout(cfg.Dir); err != nil {
			return nil, err
		}
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("sessionstore: create data dir: %w", err)
		}
	}
	if cfg.Versions == nil {
		vcfg := vstore.Config{}
		if cfg.Dir != "" {
			vcfg.Dir = filepath.Join(cfg.Dir, "vstore")
		}
		if cfg.Faults != nil {
			vcfg.Faults = tearOnly{cfg.Faults}
		}
		vs, err := vstore.Open(vcfg)
		if err != nil {
			return nil, fmt.Errorf("sessionstore: open version store: %w", err)
		}
		st.cfg.Versions, st.ownsVersions = vs, true
	}
	for i := range st.shards {
		st.shards[i] = &shard{
			idx:        i,
			count:      cfg.Shards,
			versions:   st.cfg.Versions,
			sessions:   map[string]*Entry{},
			tombstones: map[string]bool{},
			snapEvery:  cfg.SnapshotEvery,
		}
	}
	if cfg.Dir == "" {
		return st, nil
	}
	// Every shard root is read, and every session's placement checked,
	// before any shard loads.
	plans, err := planShards(st.cfg.Versions, cfg.Shards, len(wals))
	if err != nil {
		return nil, st.abandon(err)
	}
	for i, sh := range st.shards {
		// Nothing else can reach the shard yet; its lock is held so the
		// helpers it shares with serving run under the lock they document.
		sh.mu.Lock()
		err := sh.load(plans[i], st.clock.Now())
		maxNum := sh.maxNum
		sh.mu.Unlock()
		if err != nil {
			return nil, st.abandon(err)
		}
		st.nextNum = max(st.nextNum, maxNum)
	}
	for _, path := range wals {
		if err := os.Remove(path); err != nil {
			return nil, st.abandon(fmt.Errorf("sessionstore: remove the empty %s: %w", path, err))
		}
	}
	return st, nil
}

// tearOnly lends the journal of the version store Open opens the crash
// seam of Config.Faults, and nothing else: no put or commit fault.
type tearOnly struct{ WriteFaults }

func (tearOnly) Inject(string) error { return nil }

// abandon closes a version store a failed Open opened, and returns err
// joined with what closing it said.
func (s *Store) abandon(err error) error {
	if s.ownsVersions {
		err = errors.Join(err, s.cfg.Versions.Close())
	}
	return err
}

// walLastReader names the last commit that reads a shard WAL with a
// record in it, and jsonWALLastReader the last that reads one of JSON
// records.
const (
	walLastReader     = `0230b50 ("each cdalint rule earns its lines")`
	jsonWALLastReader = `32443c0 ("every option has a setter")`
)

// checkLayout reads dir before anything opens in it and returns its
// shard WALs, the logs older stores kept beside the journal, when every
// one is empty, as a clean Close left them: Open removes them once it
// has opened. A shard-NN.snap, the JSON checkpoint older stores wrote, or
// a WAL with any byte in it is a *vstore.FormatError naming the last
// commit that reads it — the journal's, when the journal is older still.
func checkLayout(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("sessionstore: read data dir: %w", err)
	}
	var wals []string
	var held *vstore.FormatError // the first WAL with a record in it
	for _, e := range entries {
		name, n := e.Name(), 0
		path := filepath.Join(dir, name)
		if strings.HasPrefix(name, "shard-") && strings.HasSuffix(name, ".snap") {
			return nil, &vstore.FormatError{Path: path, Format: "a JSON shard snapshot"}
		}
		if _, err := fmt.Sscanf(name, "shard-%d.wal", &n); err != nil || name != fmt.Sprintf("shard-%02d.wal", n) {
			continue
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("sessionstore: read %s: %w", path, err)
		}
		wals = append(wals, path)
		payloads, _ := framelog.Scan(walMagic, raw)
		for _, p := range payloads {
			if len(p) > 0 && p[0] == '{' {
				held = &vstore.FormatError{Path: path, Format: "a shard WAL of JSON records", Reader: jsonWALLastReader}
			}
		}
		if len(raw) > 0 && held == nil {
			held = &vstore.FormatError{Path: path, Format: "a shard WAL holding records", Reader: walLastReader}
		}
	}
	switch {
	case held == nil:
		return wals, nil
	case held.Reader == walLastReader:
		// A journal older than the WAL is the older format to name.
		if err := vstore.CheckFormat(filepath.Join(dir, "vstore")); err != nil {
			return nil, err
		}
	}
	return nil, held
}

// misplaced is the ErrShardCount for session id, found in where.
func misplaced(id, where string, shards, dirShards int) error {
	return fmt.Errorf("%w: session %s in %s was written under %d shards; under %d it belongs in shard %d",
		ErrShardCount, id, where, dirShards, shards, ShardIndexFor(id, shards))
}

// shardPlan is what Open recovers a shard from: the head of its root,
// "" on a shard with none, the state that head's tree holds, and the
// shard's session records that follow it in the journal.
type shardPlan struct {
	root    vstore.Hash
	snap    snapshot
	records []vstore.Event
}

// planShards reads every shard root of vs and sorts the journal's
// session records after them into the shards under shards. The count a
// directory was written under, dirShards, is the shard root of the
// highest index, rounded up to a power of two — a shard's first record
// lands behind its root's first version — or the count of the WALs an
// older directory had, wals, if that is higher. A root at or beyond
// shards, or a session that belongs in another shard under shards than
// under dirShards, is ErrShardCount.
func planShards(vs *vstore.Store, shards, wals int) ([]shardPlan, error) {
	events := vs.Events()
	last := map[int]int{} // shard → the index of its root's head in events
	top := -1
	for i, ev := range events {
		var n int
		if _, err := fmt.Sscanf(ev.Root, "shard/%d", &n); err == nil && ev.Root == ShardRoot(n) && !ev.Mark {
			last[n], top = i, max(top, n)
		}
	}
	dirShards := 1
	for dirShards < top+1 || dirShards < wals {
		dirShards <<= 1
	}
	if top >= shards {
		return nil, fmt.Errorf("%w: the journal holds %s, written under %d shards, not %d", ErrShardCount, ShardRoot(top), dirShards, shards)
	}
	plans := make([]shardPlan, shards)
	for i := range plans {
		if err := readRoot(vs, i, shards, dirShards, &plans[i]); err != nil {
			return nil, err
		}
	}
	for i, ev := range events {
		id, ok := strings.CutPrefix(ev.Root, "session/")
		if !ok {
			continue
		}
		j := ShardIndexFor(id, shards)
		if at, ok := last[j]; ok && i < at {
			continue
		}
		if ShardIndexFor(id, dirShards) != j {
			return nil, misplaced(id, "the journal", shards, dirShards)
		}
		plans[j].records = append(plans[j].records, ev)
	}
	return plans, nil
}

// readRoot fills plan with the head of shard's root in vs and the state
// its tree holds, neither on a shard with no root, and is ErrShardCount
// when a session in it belongs in another shard under shards.
func readRoot(vs *vstore.Store, shard, shards, dirShards int, plan *shardPlan) error {
	head, err := vs.Head(ShardRoot(shard))
	if errors.Is(err, vstore.ErrUnknownRoot) {
		return nil
	} else if err != nil {
		return err
	}
	snap, err := decodeShardTree(vs, head.Tree)
	if err != nil {
		return fmt.Errorf("sessionstore: load shard %d root: %w", shard, err)
	}
	for _, ss := range snap.Sessions {
		if ShardIndexFor(ss.ID, shards) != shard {
			return misplaced(ss.ID, "shard root "+ShardRoot(shard), shards, dirShards)
		}
	}
	plan.root, plan.snap = head.Hash, snap
	return nil
}

// load recovers the shard from plan: the state of its root's head, then
// each journal record after it that stands for one of the shard's
// records, replayed and framed at the next ship sequence — so the
// replication tail holds the frames it held before the crash, byte for
// byte. A version that stands for no record — an older writer's, which
// versioned what its WAL logged, or a replica's of a session a root
// installed — is passed over. Caller holds sh.mu.
func (sh *shard) load(plan shardPlan, now time.Duration) error {
	sh.reset(plan.snap, now)
	sh.rooted = plan.root != ""
	for _, ev := range plan.records {
		rec, tree, err := sh.recordOf(ev)
		if err != nil {
			return err
		}
		if tree == nil && rec.Kind != kindEvict {
			continue
		}
		rec.Ship = sh.cursor() + 1
		frame, err := encodeRecord(rec)
		if err != nil {
			return err
		}
		sh.replay(rec, tree, now)
		sh.tail = append(sh.tail, frame)
	}
	return nil
}

// reset sets the shard to snap, the state of a shard root. Caller holds
// sh.mu, or is Open.
func (sh *shard) reset(snap snapshot, now time.Duration) {
	sh.sessions = map[string]*Entry{}
	sh.tombstones = map[string]bool{}
	sh.maxNum = snap.MaxNum
	for _, ss := range snap.Sessions {
		sh.sessions[ss.ID] = &Entry{ID: ss.ID, num: ss.Num, sh: sh,
			committed: ss.Turns, focus: ss.Focus, lastActive: now, tree: ss.tree}
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
}

// replay applies one record — judged to change the shard (judge), or
// rebuilt from the journal (recordOf) — to memory, tree being the
// session tree a create or turn record's version holds. Caller holds
// sh.mu.
func (sh *shard) replay(rec walRecord, tree *sessionTree, now time.Duration) {
	switch rec.Kind {
	case kindCreate:
		sh.maxNum = max(sh.maxNum, rec.Num)
		sh.sessions[rec.ID] = &Entry{ID: rec.ID, num: rec.Num, sh: sh, lastActive: now, tree: tree}
	case kindTurn:
		e := sh.sessions[rec.ID]
		e.committed = append(e.committed, rec.Turns...)
		e.focus, e.current, e.tree = rec.Focus, false, tree
		// A turn is activity: a replica's idle clock runs from the turns
		// it is shipped, as its primary's runs from the turns it commits.
		e.lastActive = now
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

// newBatch starts the batch that lands the shard's next records. On a
// shard whose root has no version yet its first one — the empty shard
// at ship sequence 0 — comes first, so that every shard with a record
// has a root: the shard count a directory was written under is in its
// journal. Caller holds sh.mu.
func (sh *shard) newBatch(turn *obs.Turn) (*vstore.Batch, error) {
	b := sh.versions.NewBatch(turn)
	if !sh.rooted {
		tree, err := encodeShardTree(b, snapshot{})
		if err != nil {
			return nil, err
		}
		b.Version(ShardRoot(sh.idx), tree, 0)
	}
	return b, nil
}

// logRecords lands b, on which the journal records standing for recs are
// queued, with one flushed append — the acknowledgement — and then
// retains their frames, at the next ship sequences, in the replication
// tail. Nothing moves when the append fails. Caller holds sh.mu.
func (sh *shard) logRecords(turn *obs.Turn, b *vstore.Batch, recs ...walRecord) error {
	frames := make([][]byte, len(recs))
	for i, rec := range recs {
		rec.Ship = sh.cursor() + int64(i) + 1
		var err error
		if frames[i], err = encodeRecord(rec); err != nil {
			return err
		}
	}
	end := turn.Start("vstore.journal")
	err := b.Land()
	end.End()
	if err != nil {
		return err
	}
	sh.rooted = true
	sh.tail = append(sh.tail, frames...)
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
	rec := walRecord{Kind: kindCreate, ID: id, Num: num}
	b, tree, err := sh.stage(nil, rec, sessionSnap{ID: id, Num: num})
	if err == nil {
		err = sh.logRecords(nil, b, rec)
	}
	if err != nil {
		return nil, err
	}
	e := &Entry{ID: id, num: num, sh: sh, lastActive: s.clock.Now(), tree: tree}
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
// of e's transcript: one flushed journal append of the session's tree
// at its new turn count. It MUST be called inside e.Do, immediately
// after a successful Respond, so the pair under commit cannot move. When
// the append fails nothing committed moves, and the session's next Do
// rebuilds the dialogue session from what did — memory never claims a
// turn disk does not hold — and the error is returned for the caller to
// surface (the client simply re-asks).
func (s *Store) CommitTurn(e *Entry) error { return s.commitTurn(nil, e) }

// CommitTurnContext is CommitTurn that counts what the commit writes —
// the session version, a compaction it sets off — against the obs turn
// ctx carries.
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
	// The pair joins committed's spare capacity, if it has any, where
	// nothing reads while committed is shorter.
	after := sessionSnap{ID: e.ID, Num: e.num, Focus: rec.Focus, Turns: append(e.committed, pair...), tree: e.tree}
	b, tree, err := sh.stage(turn, rec, after)
	if err == nil {
		err = sh.logRecords(turn, b, rec)
	}
	if err != nil {
		e.current = false
		return err
	}
	e.committed, e.focus, e.tree = after.Turns, rec.Focus, tree
	e.lastActive = s.clock.Now()
	sh.compactIfDue(turn)
	return nil
}

// encodeTurn is a dialogue turn as it is persisted, which the turn codec
// records and turns chunks share requires: text that is not valid UTF-8 —
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
	rec := walRecord{Kind: kindEvict, ID: e.ID}
	b, _, err := sh.stage(nil, rec, sessionSnap{})
	if err == nil {
		err = sh.logRecords(nil, b, rec)
	}
	if err != nil {
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
		// two sweeps of identical stores write identical journal suffixes.
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

// compactIfDue compacts the shard when enough records have accumulated
// since the last compaction. Caller holds sh.mu. Failures are
// remembered, not propagated: the record that triggered compaction is
// already durable, so user traffic continues and the error resurfaces at
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

// compact folds the shard into its shard root — the checkpoint — with
// one flushed journal append. The ship horizon advances with the root:
// replicas behind it are shipped the root instead of frames, and the
// replication tail and Open's replay start after it. A journal that
// cannot take it refuses the compaction, and nothing moves. Caller holds
// sh.mu.
func (sh *shard) compact(turn *obs.Turn) error {
	defer turn.Start("sessionstore.compact").End()
	snap := sh.buildSnapshot()
	if err := sh.commitShardVersion(turn, snap); err != nil {
		return fmt.Errorf("sessionstore: compact shard %d: %w", sh.idx, err)
	}
	sh.rooted = true
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

// Close compacts the dir-backed shards with records since their last
// compaction, so the next Open replays nothing, closes a version store
// Open opened, and reports any compaction failure deferred off the
// commit path.
func (s *Store) Close() error {
	var errs []error
	if s.cfg.Dir != "" {
		errs = append(errs, s.Compact())
	}
	for _, sh := range s.shards {
		sh.mu.Lock()
		if sh.compactErr != nil {
			errs = append(errs, sh.compactErr)
			sh.compactErr = nil
		}
		sh.mu.Unlock()
	}
	if s.ownsVersions {
		errs = append(errs, s.cfg.Versions.Close())
	}
	return errors.Join(errs...)
}
