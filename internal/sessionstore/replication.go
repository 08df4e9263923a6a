package sessionstore

// Primary→replica record shipping. Every shard numbers the records it
// logs with a ship sequence — 1-based, monotonic across compactions
// and restarts (the shard root persists the sequence at its horizon) —
// and keeps the records since the last compaction in memory as values,
// its replication tail, rebuilt from the journal on Open. A replication
// driver (internal/cluster, or cdarouter over HTTP) pulls the records
// after the replica's cursor with PullRecords and applies them on the
// replica store with ApplyBatch; when the replica's cursor has fallen
// behind the primary's compaction horizon the pull ships the shard root
// at the horizon as well, and record shipping resumes from there.
//
// A shipped record is JSON: its ship sequence, kind and session, what it
// says — a turn's pair in the bytes a turns chunk holds — and the session
// node its version pins. The replica judges every record of the batch
// against the state the records before it leave, rebuilds each version
// as it would its own, and refuses a record whose version pins any other
// node: two stores that hold the same transcript must hold the same
// tree. The whole batch then lands in the replica's journal as the same
// records the primary's journal holds — a version of the session per
// create and turn, a mark per evict — with one flushed append. Its Open
// then rebuilds the same records, so the replica's tail, and what it
// ships on after a promotion, is the primary's. Applying a record twice
// is a no-op, by its ship sequence, and a replica killed mid-apply
// truncates its torn tail on reopen exactly like a primary.

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"time"

	"github.com/reliable-cda/cda/internal/dialogue"
	"github.com/reliable-cda/cda/internal/vstore"
)

// recordKind names what a record does to its session.
type recordKind string

// The record kinds, as a shipped record spells them.
const (
	kindCreate recordKind = "create"
	kindTurn   recordKind = "turn"
	kindEvict  recordKind = "evict"
)

// record is one of a shard's records, as its replication tail holds it.
// A create carries the session's Num, a turn the transcript index of its
// first turn (Turn, which must be the session's turn count when it
// applies), the focus after it and its Turns; both carry Node, the
// session node their version pins. An evict carries only its ID.
type record struct {
	Kind  recordKind
	ID    string
	Num   int
	Turn  int
	Focus string
	Turns []dialogue.Turn
	Node  vstore.Hash
}

// ShipRecord is a record as it is shipped, at its ship sequence Seq:
// Pair holds a turn's turns in the bytes a turns chunk holds
// (encodeTurns), and Node is the session node a create's or a turn's
// version pins, which the replica's version of it must pin too.
type ShipRecord struct {
	Seq   int64  `json:"seq"`
	Kind  string `json:"kind"`
	ID    string `json:"id"`
	Num   int    `json:"num,omitempty"`
	Turn  int    `json:"turn,omitempty"`
	Focus string `json:"focus,omitempty"`
	Pair  []byte `json:"pair,omitempty"`
	Node  string `json:"node,omitempty"`
}

// ship renders rec as it is shipped at ship sequence seq.
func (rec record) ship(seq int64) (ShipRecord, error) {
	sr := ShipRecord{Seq: seq, Kind: string(rec.Kind), ID: rec.ID, Num: rec.Num,
		Turn: rec.Turn, Focus: rec.Focus, Node: string(rec.Node)}
	if rec.Kind != kindTurn {
		return sr, nil
	}
	var err error
	if sr.Pair, err = encodeTurns(rec.Turns); err != nil {
		return ShipRecord{}, fmt.Errorf("sessionstore: ship record %d: %w", seq, err)
	}
	return sr, nil
}

// record reads a shipped record back. It takes only what ship writes for
// the record it decodes to: a field the kind does not carry, a negative
// num or a pair that is no turns chunk's bytes is an error.
func (sr ShipRecord) record() (record, error) {
	rec := record{Kind: recordKind(sr.Kind), ID: sr.ID}
	switch rec.Kind {
	case kindCreate:
		rec.Num, rec.Node = sr.Num, vstore.Hash(sr.Node)
	case kindTurn:
		var err error
		if rec.Turns, err = decodeTurns(sr.Pair, math.MaxInt); err != nil {
			return record{}, fmt.Errorf("its pair: %w", err)
		}
		rec.Turn, rec.Focus, rec.Node = sr.Turn, sr.Focus, vstore.Hash(sr.Node)
	case kindEvict:
	default:
		return record{}, fmt.Errorf("unknown record kind %q", sr.Kind)
	}
	if again, err := rec.ship(sr.Seq); err != nil || sr.Num < 0 || !reflect.DeepEqual(again, sr) {
		return record{}, fmt.Errorf("a %s record of session %q carries what no %s record does", sr.Kind, sr.ID, sr.Kind)
	}
	return rec, nil
}

// ShipBatch is one replication transfer for one shard. One of two
// shapes, by how far behind the requested cursor is:
//
//   - Records only: the records after the cursor, in order (the common
//     case — the replica is within the primary's retained tail).
//   - SnapshotRoot + Records: the cursor predates the compaction
//     horizon. SnapshotRoot is the commit hash of the primary's shard
//     root at SnapshotSeq, the horizon; the replica materializes it
//     from chunks it negotiates separately (have/want over chunk
//     hashes — only missing chunks cross the wire), adopts it as its
//     own shard root, then replays the records on top.
//
// PrimaryCursor is the primary's cursor at pull time so the replica
// can report its lag without a second round trip.
type ShipBatch struct {
	Shard         int          `json:"shard"`
	SnapshotRoot  string       `json:"snapshot_root,omitempty"`
	SnapshotSeq   int64        `json:"snapshot_seq,omitempty"`
	Records       []ShipRecord `json:"records,omitempty"`
	PrimaryCursor int64        `json:"primary_cursor"`
	// OldFrames is where a batch of 4bc3512 or older carries its records:
	// binary WAL record frames, which ApplyBatch refuses as a
	// *vstore.FormatError. Nothing here ships it.
	OldFrames json.RawMessage `json:"frames,omitempty"`
}

// Empty reports whether the batch carries no state to apply.
func (b ShipBatch) Empty() bool {
	return b.SnapshotRoot == "" && len(b.Records) == 0
}

// framesLastReader names the last commit that ships and applies a batch
// of record frames.
const framesLastReader = `4bc3512 ("the journal spells an address once")`

// ErrReplicaGap is returned by ApplyBatch when the batch does not
// extend what the replica holds: its first new record is not the one
// after the replica's cursor (records were lost in transit), or its
// shard root's closure is not in the replica's version store (the
// driver did not negotiate it). The driver re-pulls from the replica's
// actual cursor, which may now yield a shard root, and negotiates that
// root's chunks before it applies the batch.
var ErrReplicaGap = errors.New("sessionstore: replication gap; re-pull from the replica cursor")

// ReplicationCursor reports the shard's ship sequence: the number of
// records it has ever logged, compactions included. A replica's
// cursor is the sequence it has durably applied through.
func (s *Store) ReplicationCursor(shard int) int64 {
	sh := s.shards[shard&(len(s.shards)-1)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.cursor()
}

// ReplicationLag reports how many records the shard is known to be
// behind the primary it last applied a batch from (zero on a primary,
// or when fully caught up). The remote cursor is the PrimaryCursor of
// the most recently applied batch, so lag is a lower bound during a
// partition: the primary may have committed more since.
func (s *Store) ReplicationLag(shard int) int64 {
	sh := s.shards[shard&(len(s.shards)-1)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if lag := sh.remoteSeq - sh.cursor(); lag > 0 {
		return lag
	}
	return 0
}

// cursor computes the shard's ship sequence. Caller holds sh.mu.
func (sh *shard) cursor() int64 { return sh.shipBase + int64(len(sh.tail)) }

// PullRecords returns the shard's records after cursor `after`, at
// most max of them (max <= 0 means all). When `after` predates the
// compaction horizon the batch also carries the shard root at the
// horizon, and its records start there. An `after` beyond the cursor is
// an error: the "replica" has state this primary never shipped (split
// brain or crossed stores), and silently rewinding it would mask that.
func (s *Store) PullRecords(shard int, after int64, max int) (ShipBatch, error) {
	if shard < 0 || shard >= len(s.shards) {
		return ShipBatch{}, fmt.Errorf("sessionstore: pull from unknown shard %d (have %d)", shard, len(s.shards))
	}
	sh := s.shards[shard]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	cur := sh.cursor()
	b := ShipBatch{Shard: shard, PrimaryCursor: cur}
	if after > cur {
		return ShipBatch{}, fmt.Errorf("sessionstore: replica cursor %d ahead of shard %d cursor %d", after, shard, cur)
	}
	if after < sh.shipBase {
		// The horizon moves only once the shard root has landed there
		// (compact, installRoot), so a head anywhere else is a bug.
		head, err := sh.versions.Head(ShardRoot(shard))
		if err != nil || head.Turn != int(sh.shipBase) {
			return ShipBatch{}, fmt.Errorf("sessionstore: shard %d root is not at its horizon %d: head at %d, %v", shard, sh.shipBase, head.Turn, err)
		}
		b.SnapshotRoot, b.SnapshotSeq = string(head.Hash), sh.shipBase
		after = sh.shipBase
	}
	start := int(after - sh.shipBase)
	end := len(sh.tail)
	if max > 0 && start+max < end {
		end = start + max
	}
	for i := start; i < end; i++ {
		sr, err := sh.tail[i].ship(sh.shipBase + int64(i) + 1)
		if err != nil {
			return ShipBatch{}, err
		}
		b.Records = append(b.Records, sr)
	}
	return b, nil
}

// ApplyBatch applies a pulled batch on the replica: a shard root above
// the replica's cursor is installed wholesale (replacing the shard — the
// primary's state at SnapshotSeq is a superset of any prefix the replica
// held) and adopted as the replica's own root, and one at or below it is
// skipped; records are decoded, each required to change the state the
// records before it leave — a create of a session the shard has never
// held, a turn at its session's turn count, an evict of a live session,
// each of a session this shard holds — and to name the session node its
// version pins here, all of them before anything is installed or
// replayed. The root and the records then land with one flushed journal append, and only then are
// replayed. Records at or below the replica's cursor are skipped, so
// re-applying a batch is harmless; a gap above the cursor, or a shard
// root whose chunks are not all here, returns ErrReplicaGap. A batch of
// record frames, as 4bc3512 and older ship, is a *vstore.FormatError.
func (s *Store) ApplyBatch(b ShipBatch) error {
	if b.Shard < 0 || b.Shard >= len(s.shards) {
		return fmt.Errorf("sessionstore: apply to unknown shard %d (have %d)", b.Shard, len(s.shards))
	}
	if len(b.OldFrames) > 0 {
		return &vstore.FormatError{Format: "a ship batch of binary WAL record frames", Reader: framesLastReader}
	}
	sh := s.shards[b.Shard]
	// A shard root at or below the replica's cursor is one it is already
	// past (a restarted router pulls from 0): installing it would
	// rewind the shard, so it is skipped before anything is materialized
	// or negotiated, and the records are judged against the cursor as it is.
	if b.SnapshotRoot != "" && b.SnapshotSeq <= s.ReplicationCursor(b.Shard) {
		b.SnapshotRoot, b.SnapshotSeq = "", 0
	}
	// The shard root materializes from the local chunk store before the
	// shard lock is taken (vstore has its own locking).
	var snap *snapshot
	switch {
	case b.SnapshotRoot != "":
		ss, err := s.materializeShardSnapshot(vstore.Hash(b.SnapshotRoot), b.SnapshotSeq)
		if err != nil {
			return err
		}
		snap = &ss
	case b.SnapshotSeq != 0:
		// A primary that shipped its state some other way (older builds
		// inlined a JSON document): nothing here can install it.
		return fmt.Errorf("sessionstore: batch for shard %d is at snapshot_seq %d with no snapshot_root", b.Shard, b.SnapshotSeq)
	}
	sh.mu.Lock()
	maxNum, err := sh.applyLocked(b, snap, s.clock.Now())
	sh.mu.Unlock()
	if err != nil {
		return err
	}
	// Lift the shard's id horizon into the store-wide allocator (lock
	// order: s.mu is never taken while holding sh.mu), so a promoted
	// replica never re-issues an id the primary already handed out.
	s.mu.Lock()
	if maxNum > s.nextNum {
		s.nextNum = maxNum
	}
	s.mu.Unlock()
	return nil
}

// applyLocked is ApplyBatch under the shard lock, snap being the state
// b.SnapshotRoot materialized to (nil when b names none); it returns the
// shard's id horizon after the apply. Caller holds sh.mu.
func (sh *shard) applyLocked(b ShipBatch, snap *snapshot, now time.Duration) (int, error) {
	// The cursor the records must extend is the one the batch's root will
	// leave, so the whole batch is judged before any of it lands. A root
	// an apply that raced this one has already passed is skipped.
	cur := sh.cursor()
	if snap != nil && b.SnapshotSeq <= cur {
		snap = nil
	}
	if snap != nil {
		cur = b.SnapshotSeq
	}
	first := cur + 1
	var recs []record
	for _, sr := range b.Records {
		if sr.Seq <= cur {
			continue
		}
		if sr.Seq != cur+1 {
			return 0, fmt.Errorf("%w: shard %d at %d got record %d", ErrReplicaGap, b.Shard, cur, sr.Seq)
		}
		rec, err := sr.record()
		if err != nil {
			return 0, fmt.Errorf("sessionstore: replication record %d for shard %d: %w", sr.Seq, b.Shard, err)
		}
		recs, cur = append(recs, rec), sr.Seq
	}
	if snap == nil && len(recs) == 0 {
		return sh.maxNum, nil
	}
	batch := sh.versions.NewBatch(nil)
	if snap != nil {
		batch.Adopt(ShardRoot(sh.idx), vstore.Hash(b.SnapshotRoot))
		if err := sh.keepInstalled(batch, snap); err != nil {
			return 0, err
		}
	} else if !sh.rooted {
		var err error
		if batch, err = sh.newBatch(nil); err != nil {
			return 0, err
		}
	}
	trees, err := sh.judge(batch, first, recs, snap)
	if err != nil {
		return 0, fmt.Errorf("sessionstore: replication batch for shard %d: %w", b.Shard, err)
	}
	if err := batch.Land(); err != nil {
		return 0, err
	}
	sh.rooted = true
	if snap != nil {
		sh.reset(*snap, now)
	}
	for i, rec := range recs {
		sh.replay(rec, trees[i], now)
	}
	sh.tail = append(sh.tail, recs...)
	if b.PrimaryCursor > sh.remoteSeq {
		sh.remoteSeq = b.PrimaryCursor
	}
	sh.compactIfDue(nil)
	return sh.maxNum, nil
}

// keepInstalled queues on b a version of every session of snap, the
// shard root a batch installs, whose root in the store is behind it, so
// the replica reads each as of the turn count it installs at; each
// version's tree is remembered in snap for the records after it. They
// follow the root in the journal, which holds every turn they pin, so
// Open passes them over (recordOf), and a torn append that keeps one
// keeps the root. Caller holds sh.mu.
func (sh *shard) keepInstalled(b *vstore.Batch, snap *snapshot) error {
	for i := range snap.Sessions {
		ss := &snap.Sessions[i]
		if head, err := sh.versions.Head(SessionRoot(ss.ID)); err == nil && head.Turn >= len(ss.Turns) {
			continue
		}
		tree, err := encodeSessionTree(b, *ss)
		if err != nil {
			return err
		}
		b.Version(SessionRoot(ss.ID), tree.sess, len(ss.Turns))
		ss.tree = tree
	}
	return nil
}

// judge holds each of recs, the records from ship sequence first on, to
// the state the records before it leave — from snap, when the batch
// installs a shard root, else from the shard's own — queues on b the
// journal record standing for each, and returns the tree each create or
// turn leaves. A record that would not change that state, or of a
// session that belongs in another shard, is an error: no journal record
// could stand for it. So is a create or turn whose version here pins
// another session node than the one it names. Caller holds sh.mu.
func (sh *shard) judge(b *vstore.Batch, first int64, recs []record, snap *snapshot) ([]*sessionTree, error) {
	type held struct {
		ss   *sessionSnap // nil: not live
		gone bool
	}
	state := map[string]held{}
	if snap != nil {
		for i := range snap.Sessions {
			state[snap.Sessions[i].ID] = held{ss: &snap.Sessions[i]}
		}
		for _, id := range snap.Tombstones {
			state[id] = held{gone: true}
		}
	}
	lookup := func(id string) held {
		if h, ok := state[id]; ok || snap != nil {
			return h
		}
		if e, ok := sh.sessions[id]; ok {
			ss := e.snap()
			return held{ss: &ss}
		}
		return held{gone: sh.tombstones[id]}
	}
	trees := make([]*sessionTree, len(recs))
	for i, rec := range recs {
		seq := first + int64(i)
		if got := ShardIndexFor(rec.ID, sh.count); got != sh.idx {
			return nil, fmt.Errorf("record %d is of session %s, which belongs in shard %d", seq, rec.ID, got)
		}
		h := lookup(rec.ID)
		var after sessionSnap
		switch rec.Kind {
		case kindCreate:
			if h.ss != nil || h.gone {
				return nil, fmt.Errorf("record %d creates session %s, which the shard holds", seq, rec.ID)
			}
			after = sessionSnap{ID: rec.ID, Num: rec.Num}
		case kindTurn:
			if h.ss == nil || rec.Turn != len(h.ss.Turns) || len(rec.Turns) == 0 {
				return nil, fmt.Errorf("record %d adds %d turns at %d to session %s, which does not hold that many", seq, len(rec.Turns), rec.Turn, rec.ID)
			}
			after = sessionSnap{ID: rec.ID, Num: h.ss.Num, Focus: rec.Focus, Turns: slices.Concat(h.ss.Turns, rec.Turns), tree: h.ss.tree}
		case kindEvict:
			if h.ss == nil {
				return nil, fmt.Errorf("record %d evicts session %s, which the shard does not hold live", seq, rec.ID)
			}
			state[rec.ID] = held{gone: true}
		}
		tree, err := stageRecord(nil, b, rec, after)
		if err != nil {
			return nil, err
		}
		if tree == nil {
			continue
		}
		if tree.sess != rec.Node {
			return nil, fmt.Errorf("record %d names session node %s, but its version here pins %s", seq, rec.Node, tree.sess)
		}
		after.tree, trees[i] = tree, tree
		state[rec.ID] = held{ss: &after}
	}
	return trees, nil
}
