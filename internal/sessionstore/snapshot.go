package sessionstore

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"github.com/reliable-cda/cda/internal/framelog"
)

// snapshot is one shard's compacted state: everything the WAL had
// said, folded into a single JSON document. Compaction writes the
// snapshot durably (framelog.Publish) and only then
// truncates the WAL, so a crash between the two steps merely replays
// records the snapshot already contains — replay is idempotent by
// construction (turn records carry their transcript index).
type snapshot struct {
	// MaxNum is the highest numeric session id this shard has ever
	// issued, evicted sessions included, so a recovered store never
	// re-issues an id that a tombstone would immediately declare Gone.
	MaxNum     int           `json:"max_num"`
	Sessions   []sessionSnap `json:"sessions"`
	Tombstones []string      `json:"tombstones"`
	// ShipSeq is the replication cursor at the snapshot horizon: how
	// many records had ever been appended to this shard's WAL when the
	// snapshot was published. Recovery resumes the cursor at ShipSeq
	// plus the replayed WAL length, keeping ship sequences monotonic
	// across compactions and restarts.
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

// writeSnapshot atomically replaces the snapshot at path.
func writeSnapshot(path string, snap snapshot, nosync bool) error {
	data, err := json.Marshal(snap)
	if err != nil {
		return fmt.Errorf("sessionstore: encode snapshot: %w", err)
	}
	return framelog.Publish(path, nosync, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// readSnapshot loads the shard snapshot at path; a missing file is an
// empty snapshot (fresh shard or pre-first-compaction crash). A
// corrupt snapshot is an error — unlike the WAL tail, the snapshot
// was published atomically, so damage means something outside the
// store's crash model touched the file.
func readSnapshot(path string) (snapshot, error) {
	var snap snapshot
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return snap, nil
	}
	if err != nil {
		return snap, fmt.Errorf("sessionstore: read snapshot %s: %w", path, err)
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		return snap, fmt.Errorf("sessionstore: decode snapshot %s: %w", path, err)
	}
	return snap, nil
}
