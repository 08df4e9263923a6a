package sessionstore

// Primary→replica WAL shipping. Every shard numbers the records it
// appends with a ship sequence — 1-based, monotonic across compactions
// and restarts (the shard root persists the sequence at its horizon) —
// and keeps the CRC-framed bytes of the records since the last
// compaction in memory, exactly mirroring the on-disk WAL. A
// replication driver (internal/cluster, or cdarouter over HTTP) pulls
// frames after the replica's cursor with PullFrames and applies them
// on the replica store with ApplyBatch; when the replica's cursor has
// fallen behind the primary's compaction horizon the pull ships the
// shard root at the horizon as well, and frame shipping resumes from
// there.
//
// The shipped frames are the WAL's own wire format — each record carries
// its ship sequence — so the replica validates them with the same CRC
// scan and decoder recovery uses, persists them
// byte-identically into its own WAL, and replays them through the
// same Seq-idempotent path as crash recovery: applying a frame twice
// is a no-op, and a replica killed mid-apply truncates its torn tail
// on reopen exactly like a primary. Byte-identical durable state on
// both ends is therefore a consequence of the framing, not a separate
// protocol invariant to maintain.

import (
	"errors"
	"fmt"
	"time"

	"github.com/reliable-cda/cda/internal/vstore"
)

// Frame is one committed WAL record as shipped to a replica: the raw
// CRC-framed bytes exactly as they sit in the primary's WAL, plus its
// per-shard ship sequence.
type Frame struct {
	Seq  int64  `json:"seq"`
	Data []byte `json:"data"`
}

// ShipBatch is one replication transfer for one shard. One of two
// shapes, by how far behind the requested cursor is:
//
//   - Frames only: the records after the cursor, in order (the common
//     case — the replica is within the primary's retained tail).
//   - SnapshotRoot + Frames: the cursor predates the compaction
//     horizon. SnapshotRoot is the commit hash of the primary's shard
//     root at SnapshotSeq, the horizon; the replica materializes it
//     from chunks it negotiates separately (have/want over chunk
//     hashes — only missing chunks cross the wire), adopts it as its
//     own shard root, then replays the frames on top.
//
// PrimaryCursor is the primary's cursor at pull time so the replica
// can report its lag without a second round trip.
type ShipBatch struct {
	Shard         int     `json:"shard"`
	SnapshotRoot  string  `json:"snapshot_root,omitempty"`
	SnapshotSeq   int64   `json:"snapshot_seq,omitempty"`
	Frames        []Frame `json:"frames,omitempty"`
	PrimaryCursor int64   `json:"primary_cursor"`
}

// Empty reports whether the batch carries no state to apply.
func (b ShipBatch) Empty() bool {
	return b.SnapshotRoot == "" && len(b.Frames) == 0
}

// ErrReplicaGap is returned by ApplyBatch when the batch does not
// extend what the replica holds: its first new frame is not the one
// after the replica's cursor (records were lost in transit), or its
// shard root's closure is not in the replica's version store (the
// driver did not negotiate it). The driver re-pulls from the replica's
// actual cursor, which may now yield a shard root, and negotiates that
// root's chunks before it applies the batch.
var ErrReplicaGap = errors.New("sessionstore: replication gap; re-pull from the replica cursor")

// ReplicationCursor reports the shard's ship sequence: the number of
// records ever appended to its WAL, compactions included. A replica's
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

// PullFrames returns the shard's records after cursor `after`, at
// most max frames (max <= 0 means all). When `after` predates the
// compaction horizon the batch also carries the shard root at the
// horizon, and its frames start there. An `after` beyond the cursor is
// an error: the "replica" has state this primary never shipped (split
// brain or crossed stores), and silently rewinding it would mask that.
func (s *Store) PullFrames(shard int, after int64, max int) (ShipBatch, error) {
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
		b.Frames = append(b.Frames, Frame{Seq: sh.shipBase + int64(i) + 1, Data: sh.tail[i]})
	}
	return b, nil
}

// ApplyBatch applies a pulled batch on the replica: a shard root above
// the replica's cursor is installed wholesale (replacing the shard — the
// primary's state at SnapshotSeq is a superset of any prefix the replica
// held) and adopted as the replica's own root, and one at or below it is
// skipped; frames are CRC-validated and decoded, each
// required to hold the record at the ship sequence the batch gives it —
// all of them before anything is installed, appended or replayed — land
// byte-identically in the replica's own WAL with one append and one
// fsync, and are replayed through the same idempotent, version-keeping
// path as crash recovery. Frames at or below the replica's cursor are
// skipped, so re-applying a batch is harmless; a gap above the cursor,
// or a shard root whose chunks are not all here, returns ErrReplicaGap.
func (s *Store) ApplyBatch(b ShipBatch) error {
	if b.Shard < 0 || b.Shard >= len(s.shards) {
		return fmt.Errorf("sessionstore: apply to unknown shard %d (have %d)", b.Shard, len(s.shards))
	}
	sh := s.shards[b.Shard]
	// A shard root at or below the replica's cursor is one it is already
	// past (a restarted router pulls from 0): installing it would
	// rewind the shard, so it is skipped before anything is materialized
	// or negotiated, and the frames are judged against the cursor as it is.
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
	// The cursor the frames must extend is the one the batch's root will
	// leave, so the whole batch is judged before any of it lands. A root
	// an apply that raced this one has already passed is skipped.
	cur := sh.cursor()
	if snap != nil && b.SnapshotSeq <= cur {
		snap = nil
	}
	if snap != nil {
		cur = b.SnapshotSeq
	}
	var recs []walRecord
	var frames [][]byte
	for _, fr := range b.Frames {
		if fr.Seq <= cur {
			continue
		}
		if fr.Seq != cur+1 {
			return 0, fmt.Errorf("%w: shard %d at %d got frame %d", ErrReplicaGap, b.Shard, cur, fr.Seq)
		}
		rec, err := decodeFrame(fr.Data)
		if err != nil {
			return 0, fmt.Errorf("sessionstore: replication frame %d for shard %d: %w", fr.Seq, b.Shard, err)
		}
		if rec.Ship != fr.Seq {
			return 0, fmt.Errorf("sessionstore: replication frame %d for shard %d holds the record at ship sequence %d", fr.Seq, b.Shard, rec.Ship)
		}
		recs, frames, cur = append(recs, rec), append(frames, fr.Data), fr.Seq
	}
	if snap != nil {
		if err := sh.installRoot(vstore.Hash(b.SnapshotRoot), *snap, now); err != nil {
			return 0, err
		}
	}
	if sh.wal != nil {
		if err := sh.wal.Append(frames...); err != nil {
			return 0, err
		}
	}
	for _, rec := range recs {
		sh.replay(rec, now)
	}
	sh.tail = append(sh.tail, frames...)
	if b.PrimaryCursor > sh.remoteSeq {
		sh.remoteSeq = b.PrimaryCursor
	}
	sh.compactIfDue(nil)
	return sh.maxNum, nil
}
