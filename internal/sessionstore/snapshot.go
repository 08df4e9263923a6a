package sessionstore

// snapshot is one shard's state at a ship horizon: everything its WAL
// had said up to there. A compaction commits it as the shard's root
// (encodeShardTree) and only then truncates the WAL, so a crash between
// the two steps merely replays records the root already contains —
// replay is idempotent by construction (turn records carry their
// transcript index).
type snapshot struct {
	// MaxNum is the highest numeric session id this shard has ever
	// issued, evicted sessions included, so a recovered store never
	// re-issues an id that a tombstone would immediately declare Gone.
	MaxNum     int
	Sessions   []sessionSnap
	Tombstones []string
	// ShipSeq is the replication cursor at the horizon: how many records
	// had ever been appended to this shard's WAL when it was taken.
	// Recovery resumes the cursor at ShipSeq plus the replayed WAL
	// length, keeping ship sequences monotonic across compactions and
	// restarts.
	ShipSeq int64
}

// sessionSnap is one session's committed state.
type sessionSnap struct {
	ID    string
	Num   int
	Focus string
	Turns []turnRec
	// tree, when the state is a live Entry's, is the version tree of a
	// prefix of Turns that the version store already holds (and, when it
	// covers all of them, of Focus): where encodeSessionTree starts from.
	tree *sessionTree
}
