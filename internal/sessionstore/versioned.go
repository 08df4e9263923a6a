package sessionstore

// Content-addressed versioning of session state (internal/vstore).
// Every store maintains two families of vstore roots:
//
//	session/<id>  committed per turn pair: the transcript's Merkle
//	              tree at each committed turn count, so
//	              TranscriptAsOf(id, turn) materializes exactly what
//	              the session held at turn N;
//	shard/<NN>    committed at every compaction: the whole shard's
//	              durable state at the ship horizon — the checkpoint
//	              recovery loads and the WAL is truncated to, and the
//	              unit replicas catch up on via chunk negotiation.
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
// the same transcript hold the same tree — what recovery's redo and a
// replica's replay stand on. The reader (decodeSessionTree) concatenates
// whatever turns chunks a node lists. Each Entry remembers the chunks of
// its last committed version (sessionTree), so a version encodes and
// hashes only what the turn added, whatever the transcript's length.
// A shard tree references its session nodes, so a compaction after
// light traffic shares every untouched session with the previous
// compaction's tree, and a replica that installed that one only fetches
// the delta.
//
// A session version is an annotation on the durability path, never a
// gate on it: its failures are recorded (surfaced by DeferredError —
// the server reads it after every turn — and at Close) and user traffic
// continues. Nor does a turn wait for it: the WAL is the session
// versions' redo log. A session version is written to the journal
// without an fsync (vstore.Batch.CommitUnsynced) after the WAL append
// that acknowledged the turn; the journal is flushed before any WAL that
// covers such versions is truncated (the shard root's flushed commit in
// compact, flushVersions in installRoot, and vstore.Store.Close); and
// Open commits again whatever a power cut took from the journal's
// unflushed tail, one version per replayed turn record (keepVersion),
// so every acknowledged turn count has its as-of entry. What differs
// after such a recovery is the re-derived commits' hashes, parents and
// stamps — never a tree hash, which is a function of the transcript.
// Shard roots have no redo log behind them and are flushed commits; a
// compaction whose root does not land keeps its WAL. What still leaves a
// turn count without an entry: a version commit that fails without
// killing the journal (a full disk, rolled back) on a shard that
// compacts before the process restarts.

import (
	"encoding/binary"
	"fmt"
	"math"

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

// keepVersion commits the session's version unless its root already
// has one at or past the committed turn count: the redo step, one Head
// lookup when there is nothing to redo. Caller holds sh.mu, or is Open.
func (sh *shard) keepVersion(e *Entry) {
	if len(e.committed) == 0 {
		return
	}
	if head, err := sh.versions.Head(SessionRoot(e.ID)); err == nil && head.Turn >= len(e.committed) {
		return
	}
	sh.commitSessionVersion(nil, e)
}

// flushVersions flushes the version journal; callers are about to
// truncate the WAL that could rebuild its unflushed session versions.
func (sh *shard) flushVersions() error {
	if err := sh.versions.Sync(); err != nil {
		return fmt.Errorf("sessionstore: shard %d keeps its WAL: %w", sh.idx, err)
	}
	return nil
}

// commitSessionVersion commits the session's transcript tree at its
// current committed turn count, as one journal append and no fsync —
// the WAL record that produced this state is already flushed and
// rebuilds the version if a power cut takes it — and, once the store
// has taken it, remembers the tree for the next one to build on; a
// failed commit leaves e.tree at the last version that landed, whose
// chunks the root's head still reaches. Caller holds sh.mu. Failures
// are recorded on the shard, never returned to the durability path.
func (sh *shard) commitSessionVersion(turn *obs.Turn, e *Entry) {
	b := sh.versions.NewBatch(turn)
	end := turn.Start("sessionstore.version_encode")
	tree, err := encodeSessionTree(b, e.snap())
	end.End()
	if err == nil {
		end = turn.Start("vstore.journal")
		_, err = b.CommitUnsynced(SessionRoot(e.ID), tree.sess, len(e.committed))
		end.End()
	}
	if err != nil {
		sh.versionErr = fmt.Errorf("sessionstore: version session %s: %w", e.ID, err)
		return
	}
	e.tree = tree
}

// commitShardVersion commits snap's tree as the shard's root at its
// ship horizon, flushed: it is the checkpoint, and nothing could rebuild
// it. Caller holds sh.mu, or is Open.
func (sh *shard) commitShardVersion(turn *obs.Turn, snap snapshot) error {
	b := sh.versions.NewBatch(turn)
	tree, err := encodeShardTree(b, snap)
	if err == nil {
		_, err = b.Commit(ShardRoot(sh.idx), tree, int(snap.ShipSeq))
	}
	return err
}

// DeferredError reports, once each, the most recent failures of the
// work a shard does off the acknowledgement path: session versions
// (cleared here) and compaction (kept for the retry and for Close). Neither failed the turn that ran into it, so the caller
// serving that turn is where it gets said.
func (s *Store) DeferredError(shard int) error {
	sh := s.shards[shard&(len(s.shards)-1)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	err := sh.versionErr
	sh.versionErr = nil
	if sh.compactErr != nil && !sh.compactSaid {
		sh.compactSaid = true
		if err == nil {
			return sh.compactErr
		}
		return fmt.Errorf("%w; %w", err, sh.compactErr) // one line for a log
	}
	return err
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
