package sessionstore

import (
	"slices"

	"github.com/reliable-cda/cda/internal/dialogue"
)

// snapshot is one shard's state at a ship horizon: everything its
// records had said up to there. A compaction commits it as the shard's
// root (encodeShardTree), and recovery replays only the shard's records
// that follow that root in the journal.
type snapshot struct {
	// MaxNum is the highest numeric session id this shard has ever
	// issued, evicted sessions included, so a recovered store never
	// re-issues an id that a tombstone would immediately declare Gone.
	MaxNum     int
	Sessions   []sessionSnap
	Tombstones []string
	// ShipSeq is the replication cursor at the horizon: how many records
	// the shard had ever logged when it was taken. Recovery resumes the
	// cursor at ShipSeq plus the records past it, keeping ship sequences
	// monotonic across compactions and restarts.
	ShipSeq int64
}

// sessionSnap is one session's committed state.
type sessionSnap struct {
	ID    string
	Num   int
	Focus string
	Turns []dialogue.Turn
	// tree, when the state is a live Entry's, is the version tree of a
	// prefix of Turns that the version store already holds (and, when it
	// covers all of them, of Focus): where encodeSessionTree starts from.
	tree *sessionTree
}

// session is the dialogue session ss describes: its turns, copied so the
// session's next turn can append to them, and its focus.
func (ss sessionSnap) session() *dialogue.Session {
	sess := dialogue.NewSession()
	sess.Turns, sess.Focus = slices.Clone(ss.Turns), ss.Focus
	return sess
}
