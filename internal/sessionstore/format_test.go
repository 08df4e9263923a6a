package sessionstore

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/reliable-cda/cda/internal/dialogue"
	"github.com/reliable-cda/cda/internal/vstore"
)

// The on-disk format pin. testdata/format-v1 is a data directory in the
// `cdaserver -data-dir D -versioned` layout, written by replayFormatDialogue
// at the commit *before* the storage spine (internal/framelog) existed:
// shard WALs and snapshots, the chunk pack, roots.json. The two tests
// below hold the format still in both directions — the old bytes open
// on this code, and this code writes the old bytes.

const formatFixture = "testdata/format-v1"

// formatTurn is one scripted turn pair of the fixture dialogue.
type formatTurn struct {
	session int
	q, a    string
	conf    float64
}

// formatScript is the seeded three-session dialogue: five rounds,
// every session asking once per round.
func formatScript() []formatTurn {
	rng := rand.New(rand.NewSource(20250612))
	subjects := []string{"employment", "barometer", "wages", "vacancies"}
	places := []string{"Zurich", "Geneva", "Bern", "Ticino"}
	var script []formatTurn
	for round := 0; round < 5; round++ {
		for s := 0; s < 3; s++ {
			subj, place := subjects[rng.Intn(len(subjects))], places[rng.Intn(len(places))]
			script = append(script, formatTurn{
				session: s,
				q:       fmt.Sprintf("how many %s where canton is %s in round %d", subj, place, round),
				a:       fmt.Sprintf("%d rows of %s match %s — \"quoted\", <tagged> & unicode é", rng.Intn(9000), subj, place),
				conf:    float64(rng.Intn(1000)) / 1000,
			})
		}
	}
	return script
}

// openFormatStores opens dir in the fixture's configuration.
func openFormatStores(t *testing.T, dir string) (*Store, *vstore.Store) {
	t.Helper()
	vs, err := vstore.Open(vstore.Config{Dir: filepath.Join(dir, "vstore")})
	if err != nil {
		t.Fatal(err)
	}
	st, err := Open(Config{Dir: dir, Shards: 2, SnapshotEvery: 8, Versions: vs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := st.Close(); err != nil {
			t.Errorf("close store: %v", err)
		}
		if err := vs.Close(); err != nil {
			t.Errorf("close versions: %v", err)
		}
	})
	return st, vs
}

// replayFormatDialogue commits the script into a fresh versioned store
// under dir. Two shards at a snapshot cadence of 8 put two sessions on
// one shard, which therefore compacts once mid-dialogue and keeps
// appending afterwards. The stores are left open — Close would compact
// every WAL away — and closed at test cleanup.
func replayFormatDialogue(t *testing.T, dir string) (*Store, *vstore.Store) {
	t.Helper()
	st, vs := openFormatStores(t, dir)
	var entries []*Entry
	for i := 0; i < 3; i++ {
		e, err := st.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, e)
	}
	for _, turn := range formatScript() {
		commitPair(t, st, entries[turn.session], turn.q, turn.a, turn.conf)
	}
	return st, vs
}

// readTree maps every file under dir, by slash-separated relative
// path, to its bytes.
func readTree(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		files[filepath.ToSlash(rel)] = data
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

func sha256Hex(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// TestFormatWritesParentBytes replays the fixture's dialogue into a
// fresh directory and requires every file to hash equal to the one the
// parent commit wrote: same file names, same frames, same JSON.
func TestFormatWritesParentBytes(t *testing.T) {
	dir := t.TempDir()
	replayFormatDialogue(t, dir)
	got, want := readTree(t, dir), readTree(t, formatFixture)
	for _, name := range []string{"shard-00.wal", "shard-01.wal", "vstore/chunks.pack", "vstore/roots.json"} {
		if len(want[name]) == 0 {
			t.Fatalf("fixture lacks a non-empty %s", name)
		}
	}
	if snaps, _ := filepath.Glob(filepath.Join(formatFixture, "shard-*.snap")); len(snaps) == 0 {
		t.Fatal("fixture crosses no compaction: no shard-*.snap")
	}
	if len(got) != len(want) {
		t.Errorf("replay wrote %d files, fixture has %d", len(got), len(want))
	}
	for name, data := range want {
		if sha256Hex(got[name]) != sha256Hex(data) {
			t.Errorf("%s: replay wrote %d bytes, sha256 %s; fixture has %d bytes, sha256 %s",
				name, len(got[name]), sha256Hex(got[name]), len(data), sha256Hex(data))
		}
	}
}

// TestFormatOpensParentDir opens a copy of the fixture and requires
// the transcripts, replication cursors and version-root heads the
// dialogue must have produced.
func TestFormatOpensParentDir(t *testing.T) {
	dir := t.TempDir()
	for name, data := range readTree(t, formatFixture) {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st, vs := openFormatStores(t, dir)
	live, liveVS := replayFormatDialogue(t, t.TempDir())

	// Transcripts: rendered from the script alone, no store involved.
	want := []*dialogue.Session{dialogue.NewSession(), dialogue.NewSession(), dialogue.NewSession()}
	for _, turn := range formatScript() {
		want[turn.session].CommitTurn(turn.q, dialogue.ClassifyIntent(turn.q), turn.a, turn.conf)
	}
	for i, sess := range want {
		id := fmt.Sprintf("s%04d", i+1)
		e, status := st.Get(id)
		if status != Found {
			t.Fatalf("session %s: status %v", id, status)
		}
		if got := transcriptOf(t, e); got != Transcript(sess) {
			t.Errorf("session %s transcript:\n got: %q\nwant: %q", id, got, Transcript(sess))
		}
		asOf, _, err := st.TranscriptAsOf(id, 4)
		if err != nil {
			t.Fatalf("session %s as of turn 4: %v", id, err)
		}
		sess.Turns = sess.Turns[:4]
		if got := Transcript(asOf); got != Transcript(sess) {
			t.Errorf("session %s as of turn 4:\n got: %q\nwant: %q", id, got, Transcript(sess))
		}
	}
	// Cursors: 3 creates + 15 turn records over the two shards, and the
	// same split the live replay has.
	var total int64
	for shard := 0; shard < 2; shard++ {
		cur := st.ReplicationCursor(shard)
		if cur != live.ReplicationCursor(shard) {
			t.Errorf("shard %d cursor = %d, live replay has %d", shard, cur, live.ReplicationCursor(shard))
		}
		total += cur
	}
	if total != 18 {
		t.Errorf("cursors sum to %d, want 18 records", total)
	}
	// Roots: three session lines and the compacted shard's line, each
	// with the head the live replay committed.
	roots := vs.Roots()
	if len(roots) != 4 || len(liveVS.Roots()) != 4 {
		t.Fatalf("roots = %v, live replay has %v; want 3 sessions + 1 shard", roots, liveVS.Roots())
	}
	for _, root := range roots {
		got, err := vs.Head(root)
		if err != nil {
			t.Fatal(err)
		}
		wantHead, err := liveVS.Head(root)
		if err != nil {
			t.Fatal(err)
		}
		if got != wantHead {
			t.Errorf("root %s head = %+v, live replay has %+v", root, got, wantHead)
		}
		if !vs.HasClosure(got.Hash) {
			t.Errorf("root %s head %s: closure incomplete in the fixture pack", root, got.Hash)
		}
	}
}
