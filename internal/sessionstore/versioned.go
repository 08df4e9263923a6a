package sessionstore

// Content-addressed versioning of session state (internal/vstore).
// Every store maintains two families of vstore roots:
//
//	session/<id>  committed per record: an empty session node at turn 0
//	              when the session is created, then the transcript's
//	              Merkle tree at each committed turn count, so
//	              TranscriptAsOf(id, turn) materializes exactly what
//	              the session held at turn N; an eviction is a mark on
//	              the root, which no as-of read returns;
//	shard/<NN>    committed when the shard records its first session
//	              (the empty shard at ship sequence 0) and at every
//	              compaction: the whole shard's state at the ship
//	              horizon — the checkpoint recovery loads and replays
//	              the shard's records after, and the unit replicas
//	              catch up on via chunk negotiation.
//
// A transcript is cut where its turn count says, and nowhere else: every
// full window of turnsPerChunk turns is one sealed "turns" chunk, and
// the open window after the last one is a run of small chunks of
// openUnit turns — a pair each — all listed flat under the session
// node. Appending a pair therefore writes that pair's chunk and the
// session node; the turn that fills the window writes the window's one
// sealed chunk in place of its pair chunks, once; and every chunk before
// the one a turn added is shared byte for byte with the previous
// version. The cuts being a function of the count, two stores that hold
// the same transcript hold the same tree — what a replica's replay
// stands on. The reader (decodeSessionTree) concatenates whatever turns
// chunks a node lists. Each Entry remembers the chunks of its last
// committed version (sessionTree), so a version encodes and hashes only
// what the turn added, whatever the transcript's length. A shard tree
// references its session nodes, so a compaction after light traffic
// shares every untouched session with the previous compaction's tree,
// and a replica that installed that one only fetches the delta.
//
// A session version is the record itself: the turn is acknowledged once
// the journal append that holds its version is flushed, a failed append
// fails the turn, and recovery rebuilds each record from its version
// (recordOf). Every record a shard ships lands as exactly one journal
// record, on the primary and on the replica, so the place of a record
// among the shard's records after its root's head is its ship sequence.

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"github.com/reliable-cda/cda/internal/dialogue"
	"github.com/reliable-cda/cda/internal/obs"
	"github.com/reliable-cda/cda/internal/vstore"
)

// turnsPerChunk is how many turns a sealed chunk holds — a full window
// of the transcript — and openUnit how many a chunk of the open window
// after the last full one does: the pair a turn commits.
const (
	turnsPerChunk = 32
	openUnit      = 2
)

// SessionRoot names the vstore root tracking a session's transcript.
func SessionRoot(id string) string { return "session/" + id }

// ShardRoot names the vstore root holding a shard's checkpoints.
func ShardRoot(shard int) string { return fmt.Sprintf("shard/%02d", shard) }

// Versions returns the store's version store, never nil — the seam the
// server and cluster layers use to serve and negotiate chunks.
func (s *Store) Versions() *vstore.Store { return s.cfg.Versions }

// sessData is the data field of a "sess" chunk; refs are the turn
// chunks in transcript order. Its bytes are
//
//	uvarint len(id) · id · uvarint num · uvarint len(focus) · focus · uvarint turns · uvarint per
type sessData struct {
	ID    string
	Num   int
	Focus string
	Turns int
	Per   int
}

func (m sessData) encode() ([]byte, error) {
	p, err := appendString(nil, m.ID)
	if err != nil {
		return nil, err
	}
	p = binary.AppendUvarint(p, uint64(m.Num))
	if p, err = appendString(p, m.Focus); err != nil {
		return nil, err
	}
	p = binary.AppendUvarint(p, uint64(m.Turns))
	return binary.AppendUvarint(p, uint64(m.Per)), nil
}

// decodeSessData reads what encode writes and nothing else.
func decodeSessData(data []byte) (sessData, error) {
	d := recordDecoder{p: data}
	m := sessData{ID: d.string("session id")}
	m.Num = int(d.uvarint("session num", math.MaxInt))
	m.Focus = d.string("focus")
	m.Turns = int(d.uvarint("turn count", math.MaxInt))
	m.Per = int(d.uvarint("turns per chunk", math.MaxInt))
	return m, d.end("a session node")
}

// shardData is the data field of a "shard" chunk; refs are the
// session chunks aligned with IDs (sorted). Its bytes are
//
//	uvarint maxNum · uvarint shipSeq · uvarint len(ids) · (uvarint len(id) · id)… ·
//	uvarint len(tombstones) · (uvarint len(id) · id)…
type shardData struct {
	MaxNum     int
	ShipSeq    int64
	IDs        []string
	Tombstones []string
}

func (m shardData) encode() ([]byte, error) {
	if m.MaxNum < 0 || m.ShipSeq < 0 {
		return nil, fmt.Errorf("shard node at max num %d, ship sequence %d", m.MaxNum, m.ShipSeq)
	}
	p := binary.AppendUvarint(nil, uint64(m.MaxNum))
	p = binary.AppendUvarint(p, uint64(m.ShipSeq))
	for _, list := range [][]string{m.IDs, m.Tombstones} {
		p = binary.AppendUvarint(p, uint64(len(list)))
		for _, id := range list {
			var err error
			if p, err = appendString(p, id); err != nil {
				return nil, err
			}
		}
	}
	return p, nil
}

// decodeShardData reads what encode writes and nothing else.
func decodeShardData(data []byte) (shardData, error) {
	d := recordDecoder{p: data}
	m := shardData{MaxNum: int(d.uvarint("max num", math.MaxInt))}
	m.ShipSeq = int64(d.uvarint("ship sequence", math.MaxInt64))
	m.IDs = d.strings("session id")
	m.Tombstones = d.strings("tombstone")
	return m, d.end("a shard node")
}

// sessionTree is a session's tree as a committed version left it in the
// version store: what the next encode need not marshal or hash again.
type sessionTree struct {
	turns int           // it covers the transcript's first turns turns
	refs  []vstore.Hash // their turns chunks, in transcript order
	sess  vstore.Hash   // the session node over them
}

// encodeSessionTree stages a transcript as a Merkle tree and returns
// it. A chunk that ss.tree — the tree of a prefix of ss.Turns, already
// in the store — cuts at the same turns is referenced, not staged: with
// it the encode costs what lies past that prefix, without it the whole
// transcript, and the hashes are the same either way.
func encodeSessionTree(b *vstore.Batch, ss sessionSnap) (*sessionTree, error) {
	n, memo := len(ss.Turns), ss.tree
	if memo != nil && memo.turns == n {
		return memo, nil // the focus moves only with a turn
	}
	sealed := n - n%turnsPerChunk
	refs := make([]vstore.Hash, 0, sealed/turnsPerChunk+(n-sealed+openUnit-1)/openUnit)
	for lo, hi := 0, 0; lo < n; lo = hi {
		if hi = lo + turnsPerChunk; lo >= sealed {
			hi = min(lo+openUnit, n)
		}
		if memo != nil && hi <= memo.turns {
			// Cut the same at both counts, and at the same place in the
			// list: a sealed window, or a whole unit of the window that
			// both leave open.
			refs = append(refs, memo.refs[len(refs)])
			continue
		}
		data, err := encodeTurns(ss.Turns[lo:hi])
		if err != nil {
			return nil, fmt.Errorf("sessionstore: encode turn chunk: %w", err)
		}
		h, err := b.Put("turns", nil, data)
		if err != nil {
			return nil, err
		}
		refs = append(refs, h)
	}
	meta := sessData{ID: ss.ID, Num: ss.Num, Focus: ss.Focus, Turns: n, Per: turnsPerChunk}
	data, err := meta.encode()
	if err != nil {
		return nil, fmt.Errorf("sessionstore: encode session node: %w", err)
	}
	sess, err := b.Put("sess", refs, data)
	if err != nil {
		return nil, err
	}
	return &sessionTree{turns: n, refs: refs, sess: sess}, nil
}

// malformed is a chunk a tree decoder cannot read as what the tree says
// it is. The chunks may be a peer's, so that is an error naming it.
func malformed(h vstore.Hash, format string, args ...any) error {
	return &vstore.MalformedChunkError{Chunk: h, Err: fmt.Errorf(format, args...)}
}

// decodeSessionTree rebuilds a transcript from a session node: the
// turns chunks it lists, however they were cut, end to end. A node or
// chunk that no encoder writes is a *vstore.MalformedChunkError.
func decodeSessionTree(vs *vstore.Store, h vstore.Hash) (sessionSnap, error) {
	kind, data, err := vs.Data(h)
	if err != nil {
		return sessionSnap{}, err
	}
	if kind != "sess" {
		return sessionSnap{}, malformed(h, "is %q, want sess", kind)
	}
	meta, err := decodeSessData(data)
	if err != nil {
		return sessionSnap{}, malformed(h, "%w", err)
	}
	if meta.Per <= 0 {
		return sessionSnap{}, malformed(h, "is a session node of %d turns in chunks of %d", meta.Turns, meta.Per)
	}
	refs, err := vs.Refs(h)
	if err != nil {
		return sessionSnap{}, err
	}
	ss := sessionSnap{ID: meta.ID, Num: meta.Num, Focus: meta.Focus}
	for _, ref := range refs {
		kind, data, err := vs.Data(ref)
		if err != nil {
			return sessionSnap{}, err
		}
		if kind != "turns" {
			return sessionSnap{}, malformed(ref, "is %q, want turns", kind)
		}
		if sub, err := vs.Refs(ref); err != nil {
			return sessionSnap{}, err
		} else if len(sub) != 0 {
			return sessionSnap{}, malformed(ref, "is a turns chunk with %d refs, want none", len(sub))
		}
		turns, err := decodeTurns(data, meta.Per)
		if err != nil {
			return sessionSnap{}, malformed(ref, "in session node %s: %w", h, err)
		}
		ss.Turns = append(ss.Turns, turns...)
	}
	if len(ss.Turns) != meta.Turns {
		return sessionSnap{}, malformed(h, "is a session tree of %d turns, its node says %d", len(ss.Turns), meta.Turns)
	}
	return ss, nil
}

// encodeShardTree stages a shard's state as a Merkle tree and
// returns the shard node's address. A session whose remembered tree
// covers its whole transcript costs nothing here: its node is in the
// store and is referenced as it is.
func encodeShardTree(b *vstore.Batch, snap snapshot) (vstore.Hash, error) {
	meta := shardData{MaxNum: snap.MaxNum, ShipSeq: snap.ShipSeq, Tombstones: snap.Tombstones}
	refs := make([]vstore.Hash, 0, len(snap.Sessions))
	for _, ss := range snap.Sessions {
		tree, err := encodeSessionTree(b, ss)
		if err != nil {
			return "", err
		}
		refs = append(refs, tree.sess)
		meta.IDs = append(meta.IDs, ss.ID)
	}
	data, err := meta.encode()
	if err != nil {
		return "", fmt.Errorf("sessionstore: encode shard node: %w", err)
	}
	return b.Put("shard", refs, data)
}

// decodeShardTree rebuilds a shard's state from a shard node, holding
// it to what encodeShardTree writes: one session node per id, in the
// ids' order, no id twice.
func decodeShardTree(vs *vstore.Store, h vstore.Hash) (snapshot, error) {
	kind, data, err := vs.Data(h)
	if err != nil {
		return snapshot{}, err
	}
	if kind != "shard" {
		return snapshot{}, malformed(h, "is %q, want shard", kind)
	}
	meta, err := decodeShardData(data)
	if err != nil {
		return snapshot{}, malformed(h, "%w", err)
	}
	refs, err := vs.Refs(h)
	if err != nil {
		return snapshot{}, err
	}
	if len(refs) != len(meta.IDs) {
		return snapshot{}, malformed(h, "is a shard tree of %d sessions, its node says %d", len(refs), len(meta.IDs))
	}
	snap := snapshot{MaxNum: meta.MaxNum, ShipSeq: meta.ShipSeq, Tombstones: meta.Tombstones}
	seen := make(map[string]bool, len(refs))
	for i, ref := range refs {
		ss, err := decodeSessionTree(vs, ref)
		if err != nil {
			return snapshot{}, err
		}
		if ss.ID != meta.IDs[i] {
			return snapshot{}, malformed(h, "lists session %q at %d, session node %s there is %q", meta.IDs[i], i, ref, ss.ID)
		}
		if seen[ss.ID] {
			return snapshot{}, malformed(h, "lists session %q twice", ss.ID)
		}
		seen[ss.ID] = true
		snap.Sessions = append(snap.Sessions, ss)
	}
	return snap, nil
}

// stage starts the shard's next batch (newBatch) and queues on it the
// journal record that stands for rec: for a create or a turn the version
// of after, the session's state once rec has applied, returned as its
// tree; for an evict a mark. Caller holds sh.mu.
func (sh *shard) stage(turn *obs.Turn, rec walRecord, after sessionSnap) (*vstore.Batch, *sessionTree, error) {
	b, err := sh.newBatch(turn)
	if err != nil {
		return nil, nil, err
	}
	tree, err := stageRecord(turn, b, rec, after)
	return b, tree, err
}

// stageRecord queues on b the journal record that stands for rec, after
// being the session's state once rec has applied (unused for an evict).
func stageRecord(turn *obs.Turn, b *vstore.Batch, rec walRecord, after sessionSnap) (*sessionTree, error) {
	if rec.Kind == kindEvict {
		b.Mark(SessionRoot(rec.ID))
		return nil, nil
	}
	end := turn.Start("sessionstore.version_encode")
	tree, err := encodeSessionTree(b, after)
	end.End()
	if err != nil {
		return nil, err
	}
	b.Version(SessionRoot(rec.ID), tree.sess, len(after.Turns))
	return tree, nil
}

// recordOf rebuilds the record a journal event after the shard's root
// stands for, and the tree a create or turn leaves: a mark is the
// session's eviction; a version of an empty node at turn 0 of a session
// the shard has never held is its creation; a version that adds turns to
// a live session is the turn record that added them, its focus the
// node's. Any other version stands for no record, and the tree returned
// is nil. Caller holds sh.mu.
func (sh *shard) recordOf(ev vstore.Event) (walRecord, *sessionTree, error) {
	id := ev.Root[len(SessionRoot("")):]
	if ev.Mark {
		return walRecord{Kind: kindEvict, ID: id}, nil, nil
	}
	kind, data, err := sh.versions.Data(ev.Commit.Tree)
	if err != nil {
		return walRecord{}, nil, err
	}
	meta, err := decodeSessData(data)
	if err == nil && (kind != "sess" || meta.ID != id || meta.Per <= 0 || meta.Turns != ev.Commit.Turn) {
		err = fmt.Errorf("is a %q node of session %q at %d turns, committed at turn %d of %s", kind, meta.ID, meta.Turns, ev.Commit.Turn, ev.Root)
	}
	if err != nil {
		return walRecord{}, nil, malformed(ev.Commit.Tree, "%w", err)
	}
	refs, err := sh.versions.Refs(ev.Commit.Tree)
	if err != nil {
		return walRecord{}, nil, err
	}
	tree := &sessionTree{turns: meta.Turns, refs: refs, sess: ev.Commit.Tree}
	e, live := sh.sessions[id]
	switch {
	case !live && !sh.tombstones[id] && meta.Turns == 0:
		return walRecord{Kind: kindCreate, ID: id, Num: meta.Num}, tree, nil
	case live && meta.Turns > len(e.committed):
		turns, err := lastTurns(sh.versions, ev.Commit.Tree, refs, meta.Per, meta.Turns-len(e.committed))
		if err != nil {
			return walRecord{}, nil, err
		}
		return walRecord{Kind: kindTurn, ID: id, Seq: len(e.committed), Focus: meta.Focus, Turns: turns}, tree, nil
	}
	return walRecord{}, nil, nil
}

// lastTurns decodes the last n turns of the session tree whose node, h,
// lists refs: the turns chunks from the last back, as far as n needs.
func lastTurns(vs *vstore.Store, h vstore.Hash, refs []vstore.Hash, per, n int) ([]dialogue.Turn, error) {
	var chunks [][]dialogue.Turn
	got := 0
	for i := len(refs) - 1; i >= 0 && got < n; i-- {
		kind, data, err := vs.Data(refs[i])
		if err != nil {
			return nil, err
		}
		if kind != "turns" {
			return nil, malformed(refs[i], "is %q, want turns", kind)
		}
		turns, err := decodeTurns(data, per)
		if err != nil {
			return nil, malformed(refs[i], "in session node %s: %w", h, err)
		}
		chunks = append(chunks, turns)
		got += len(turns)
	}
	if got < n {
		return nil, malformed(h, "lists %d turns, its node says %d more than the session held", got, n)
	}
	slices.Reverse(chunks)
	all := slices.Concat(chunks...)
	return all[len(all)-n:], nil
}

// commitShardVersion commits snap's tree as the shard's root at its
// ship horizon, flushed. Caller holds sh.mu, or is Open.
func (sh *shard) commitShardVersion(turn *obs.Turn, snap snapshot) error {
	b := sh.versions.NewBatch(turn)
	tree, err := encodeShardTree(b, snap)
	if err == nil {
		_, err = b.Commit(ShardRoot(sh.idx), tree, int(snap.ShipSeq))
	}
	return err
}

// DeferredError reports, once, the most recent compaction failure,
// which is kept for the retry and for Close: it failed no turn, so the
// caller serving the turn that ran into it is where it gets said.
func (s *Store) DeferredError(shard int) error {
	sh := s.shards[shard&(len(s.shards)-1)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.compactErr != nil && !sh.compactSaid {
		sh.compactSaid = true
		return sh.compactErr
	}
	return nil
}

// TranscriptAsOf materializes a session's transcript as it stood at
// committed turn count `turn` — the time-travel read path. The
// returned dialogue session is immutable history: a fresh
// materialization, sharing nothing with the live session.
func (s *Store) TranscriptAsOf(id string, turn int) (*dialogue.Session, vstore.Commit, error) {
	vs := s.cfg.Versions
	c, err := vs.AsOf(SessionRoot(id), turn)
	if err != nil {
		return nil, vstore.Commit{}, err
	}
	ss, err := decodeSessionTree(vs, c.Tree)
	if err != nil {
		return nil, vstore.Commit{}, err
	}
	return ss.session(), c, nil
}

// materializeShardSnapshot rebuilds a shard's state from a shipped
// shard root, held to be a commit at ship sequence seq of a shard tree
// at seq. A root whose closure is not all here is an ErrReplicaGap
// naming it: the driver negotiates a root's chunks before it applies
// the batch. Any other chunk is a *vstore.MalformedChunkError naming it.
func (s *Store) materializeShardSnapshot(root vstore.Hash, seq int64) (snapshot, error) {
	vs := s.cfg.Versions
	if !vs.HasClosure(root) {
		return snapshot{}, fmt.Errorf("%w: shard root %s has chunks missing here; negotiate them before applying it", ErrReplicaGap, root)
	}
	c, err := vs.CommitOf(root)
	if err != nil {
		return snapshot{}, err
	}
	if int64(c.Turn) != seq {
		return snapshot{}, malformed(root, "is a commit at %d, want the batch's %d", c.Turn, seq)
	}
	snap, err := decodeShardTree(vs, c.Tree)
	if err == nil && snap.ShipSeq != seq {
		err = malformed(c.Tree, "is a shard node at ship sequence %d, the batch says %d", snap.ShipSeq, seq)
	}
	return snap, err
}
