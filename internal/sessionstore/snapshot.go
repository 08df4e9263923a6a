package sessionstore

import (
	"encoding/json"
	"fmt"
	"os"

	"github.com/reliable-cda/cda/internal/framelog"
)

// snapshot is one shard's state at a ship horizon: everything its WAL
// had said up to there. A compaction commits it as the shard's root
// (encodeShardTree) and only then truncates the WAL, so a crash between
// the two steps merely replays records the root already contains —
// replay is idempotent by construction (turn records carry their
// transcript index). Older stores published it as a JSON document
// instead, shard-NN.snap, which Open reads once (upgradeSnapshot).
type snapshot struct {
	// MaxNum is the highest numeric session id this shard has ever
	// issued, evicted sessions included, so a recovered store never
	// re-issues an id that a tombstone would immediately declare Gone.
	MaxNum     int           `json:"max_num"`
	Sessions   []sessionSnap `json:"sessions"`
	Tombstones []string      `json:"tombstones"`
	// ShipSeq is the replication cursor at the horizon: how many records
	// had ever been appended to this shard's WAL when it was taken.
	// Recovery resumes the cursor at ShipSeq plus the replayed WAL
	// length, keeping ship sequences monotonic across compactions and
	// restarts.
	ShipSeq int64 `json:"ship_seq,omitempty"`
}

// sessionSnap is one session's committed state.
type sessionSnap struct {
	ID    string    `json:"id"`
	Num   int       `json:"num"`
	Focus string    `json:"focus,omitempty"`
	Turns []turnRec `json:"turns"`
	// tree, when the state is a live Entry's, is the version tree of a
	// prefix of Turns that the version store already holds (and, when it
	// covers all of them, of Focus): where encodeSessionTree starts from.
	// It is no part of the document.
	tree *sessionTree
}

// readSnapshot loads the snapshot document at path, nil when there is
// none. A corrupt document is an error — it was published atomically,
// so damage means something outside the store's crash model touched
// the file.
func readSnapshot(path string) (*snapshot, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("sessionstore: read snapshot %s: %w", path, err)
	}
	var snap snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("sessionstore: decode snapshot %s: %w", path, err)
	}
	return &snap, nil
}

// upgradeSnapshot makes the snapshot document the shard was just loaded
// from its shard root, and removes the document: the one-way upgrade to
// the layout in which the root is the checkpoint. The document is
// authoritative — an older store published it before its WAL reset and
// before the root's commit — so the root is committed at its horizon
// unless the head is already there; either way the journal is flushed
// before the file goes, and an upgrade interrupted before the removal
// runs again. Caller holds sh.mu.
func (sh *shard) upgradeSnapshot(path string) error {
	var err error
	if head, herr := sh.versions.Head(ShardRoot(sh.idx)); herr != nil || head.Turn != int(sh.shipBase) {
		err = sh.commitShardVersion(sh.buildSnapshot())
	} else {
		err = sh.flushVersions()
	}
	if err != nil {
		return fmt.Errorf("sessionstore: upgrade %s: %w", path, err)
	}
	return framelog.Remove(path)
}
