package sessionstore

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"github.com/reliable-cda/cda/internal/framelog"
	"github.com/reliable-cda/cda/internal/resilience"
)

// rebuildShards is FuzzOpenRebuild's shard count.
const rebuildShards = 2

// rebuildPoint is where one acknowledged operation of rebuildScript left
// the journal: its size, and every shard's cursor.
type rebuildPoint struct {
	size    int64
	cursors [rebuildShards]int64
}

// rebuildScript runs creates, turns, a lazy eviction and a compaction of
// every shard on a store over dir, each operation one journal append,
// and abandons the store as a kill does. It returns the journal, and
// the point each operation left, the empty journal's first.
func rebuildScript(t testing.TB, dir string) ([]byte, []rebuildPoint) {
	t.Helper()
	clock := resilience.NewVirtualClock()
	const ttl = time.Hour
	st, err := Open(Config{Dir: dir, Shards: rebuildShards, SnapshotEvery: 1 << 20, TTL: ttl, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	points := []rebuildPoint{{}}
	acked := func() {
		p := rebuildPoint{}
		_, p.size = st.Versions().JournalSynced()
		for shard := range rebuildShards {
			p.cursors[shard] = st.ReplicationCursor(shard)
		}
		points = append(points, p)
	}
	var entries []*Entry
	for range 4 {
		e, err := st.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, e)
		acked()
	}
	talk := func(from, rounds int) {
		for j := range rounds {
			for _, e := range entries[from:] {
				commitPair(t, st, e, fmt.Sprintf("question %d of %s", j, e.ID), fmt.Sprintf("answer %d", j), 0.5)
				acked()
			}
		}
	}
	talk(0, 2)
	clock.Advance(ttl/2 + time.Minute)
	talk(1, 1) // the first session sits idle
	clock.Advance(ttl/2 + time.Minute)
	if _, status := st.Get(entries[0].ID); status != Gone {
		t.Fatalf("the idle session's lookup: status %v, want Gone", status)
	}
	acked()
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	acked()
	talk(1, 2)
	kill(t, st)
	journal, err := os.ReadFile(filepath.Join(dir, "vstore", "chunks.pack"))
	if err != nil {
		t.Fatal(err)
	}
	return journal, points
}

// cursorsAt is the shard cursors of a prefix of rebuildScript's journal
// n bytes long: those of the last operation whose append it holds whole.
func cursorsAt(points []rebuildPoint, n int64) [rebuildShards]int64 {
	i, _ := slices.BinarySearchFunc(points, n, func(p rebuildPoint, n int64) int {
		switch {
		case p.size < n:
			return -1
		case p.size > n:
			return 1
		}
		return 0
	})
	if i == len(points) || points[i].size > n {
		i--
	}
	return points[i].cursors
}

// FuzzOpenRebuild writes arbitrary bytes as a data directory's journal
// and opens it: Open fails with an error or opens, and never panics. The
// seeds are rebuildScript's journal cut at each of its frame boundaries;
// a cut there is a journal this store could have written, and the store
// rebuilt from it has exactly the records it holds: each shard's cursor
// is the one the script acknowledged at the last append the cut keeps
// whole.
func FuzzOpenRebuild(f *testing.F) {
	journal, points := rebuildScript(f, f.TempDir())
	if points[len(points)-1].size != int64(len(journal)) {
		f.Fatalf("the script's last append ends at %d, the journal at %d", points[len(points)-1].size, len(journal))
	}
	payloads, valid := framelog.Scan(journal[0], journal)
	if valid != len(journal) {
		f.Fatalf("%d of the journal's %d bytes are whole frames", valid, len(journal))
	}
	f.Add([]byte{})
	end := 0
	for _, p := range payloads {
		end += framelog.HeaderSize + len(p)
		f.Add(journal[:end])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.MkdirAll(filepath.Join(dir, "vstore"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "vstore", "chunks.pack"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(Config{Dir: dir, Shards: rebuildShards, SnapshotEvery: 1 << 20})
		if err != nil {
			return
		}
		defer kill(t, st)
		if !slices.Equal(journal[:min(len(data), len(journal))], data) {
			return
		}
		want := cursorsAt(points, int64(len(data)))
		for shard := range rebuildShards {
			if got := st.ReplicationCursor(shard); got != want[shard] {
				t.Fatalf("a %d-byte prefix of the journal rebuilt shard %d at cursor %d, want %d", len(data), shard, got, want[shard])
			}
		}
	})
}
