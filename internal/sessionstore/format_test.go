package sessionstore

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/reliable-cda/cda/internal/dialogue"
	"github.com/reliable-cda/cda/internal/vstore"
)

// The on-disk format pins. testdata/format-v1 is a data directory in the
// `cdaserver -data-dir D -versioned` layout, written by replayFormatDialogue
// at the commit *before* the storage spine (internal/framelog) existed:
// shard WALs and snapshots, the chunk pack, roots.json. testdata/format-v2
// is the same dialogue written at the commit that made chunks.pack the
// version store's one journal: the same shard files, root records
// interleaved with the chunks, no roots.json. The tests below hold the
// format still in both directions — v1 opens on this code (and is
// upgraded once), and this code writes the v2 bytes.

const (
	formatFixture   = "testdata/format-v1"
	formatFixtureV2 = "testdata/format-v2"
)

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

// requireSameFiles requires the named files to hash equal in got and want.
func requireSameFiles(t *testing.T, got, want map[string][]byte, names []string) {
	t.Helper()
	for _, name := range names {
		if len(want[name]) == 0 {
			t.Fatalf("fixture lacks a non-empty %s", name)
		}
		if sha256Hex(got[name]) != sha256Hex(want[name]) {
			t.Errorf("%s: replay wrote %d bytes, sha256 %s; fixture has %d bytes, sha256 %s",
				name, len(got[name]), sha256Hex(got[name]), len(want[name]), sha256Hex(want[name]))
		}
	}
}

// shardFiles are the files whose bytes no storage change so far may
// move: the WALs and the one snapshot the dialogue's compaction leaves.
var shardFiles = []string{"shard-00.wal", "shard-01.wal", "shard-01.snap"}

// TestFormatWritesParentBytes replays the fixture's dialogue into a
// fresh directory and requires the shard WALs and snapshots to hash
// equal to the ones the v1 commit wrote: same file names, same frames,
// same JSON. (The version store's files are pinned by the v2 fixture.)
func TestFormatWritesParentBytes(t *testing.T) {
	dir := t.TempDir()
	replayFormatDialogue(t, dir)
	requireSameFiles(t, readTree(t, dir), readTree(t, formatFixture), shardFiles)
}

// TestFormatWritesV2Bytes replays the dialogue and requires every file
// to hash equal to the v2 fixture, the journal included, and nothing
// else to be written.
func TestFormatWritesV2Bytes(t *testing.T) {
	dir := t.TempDir()
	replayFormatDialogue(t, dir)
	got, want := readTree(t, dir), readTree(t, formatFixtureV2)
	requireSameFiles(t, got, want, append([]string{"vstore/chunks.pack"}, shardFiles...))
	if len(got) != len(want) || len(want) != 4 {
		t.Errorf("replay wrote %d files, fixture has %d, want 4 in both", len(got), len(want))
	}
}

// copyFixture copies a fixture directory into a fresh temp dir.
func copyFixture(t *testing.T, fixture string) string {
	t.Helper()
	dir := t.TempDir()
	for name, data := range readTree(t, fixture) {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// versionLogs maps every root of the version store under dir to its
// full commit log, opening and closing the store.
func versionLogs(t *testing.T, dir string) map[string][]vstore.Commit {
	t.Helper()
	vs, err := vstore.Open(vstore.Config{Dir: filepath.Join(dir, "vstore")})
	if err != nil {
		t.Fatal(err)
	}
	logs := map[string][]vstore.Commit{}
	for _, root := range vs.Roots() {
		if logs[root], err = vs.Log(root); err != nil {
			t.Fatal(err)
		}
	}
	if err := vs.Close(); err != nil {
		t.Fatal(err)
	}
	return logs
}

// v1Logs decodes the v1 fixture's roots.json.
func v1Logs(t *testing.T) map[string][]vstore.Commit {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(formatFixture, "vstore", "roots.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Roots map[string][]vstore.Commit `json:"roots"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	return doc.Roots
}

// TestFormatUpgradesV1Roots opens a copy of the v1 fixture's version
// store: roots.json is folded into the journal and removed, the logs
// rebuilt from the journal are entry for entry the document's, and
// they stay so when the store is opened again — also when the upgrade
// is interrupted after its journal append and runs a second time.
func TestFormatUpgradesV1Roots(t *testing.T) {
	want := v1Logs(t)
	if len(want) != 4 {
		t.Fatalf("fixture roots.json has %d roots, want 3 sessions + 1 shard", len(want))
	}
	dir := copyFixture(t, formatFixture)
	rootsPath := filepath.Join(dir, "vstore", "roots.json")
	rootsDoc, err := os.ReadFile(filepath.Join(formatFixture, "vstore", "roots.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []struct {
		name        string
		rootsIsBack bool // the state a crash between append and removal leaves
	}{
		{name: "upgrade"},
		{name: "reopen"},
		{name: "upgrade again after a crash before the removal", rootsIsBack: true},
		{name: "reopen after the second upgrade"},
	} {
		if step.rootsIsBack {
			if err := os.WriteFile(rootsPath, rootsDoc, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if got := versionLogs(t, dir); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: root logs\n got: %+v\nwant: %+v", step.name, got, want)
		}
		if _, err := os.Stat(rootsPath); !os.IsNotExist(err) {
			t.Fatalf("%s: roots.json still exists (err %v)", step.name, err)
		}
	}
	// The upgraded store is a v2 store: it takes commits and keeps them.
	st, _ := openFormatStores(t, dir)
	e, status := st.Get("s0001")
	if status != Found {
		t.Fatalf("session s0001: status %v", status)
	}
	commitPair(t, st, e, "one more", "answer", 0.5)
	if err := st.DeferredError(0); err != nil {
		t.Fatal(err)
	}
	if err := st.DeferredError(1); err != nil {
		t.Fatal(err)
	}
	got := versionLogs(t, dir)
	if n := len(got[SessionRoot("s0001")]); n != len(want[SessionRoot("s0001")])+1 {
		t.Fatalf("session/s0001 log has %d entries after one more commit, want %d", n, len(want[SessionRoot("s0001")])+1)
	}
}

// TestFormatOpensParentDir opens a copy of the v1 fixture and requires
// the transcripts, replication cursors and version-root heads the
// dialogue must have produced — and that opening it upgraded the
// version store to the journal layout, which opens cleanly again.
func TestFormatOpensParentDir(t *testing.T) {
	dir := copyFixture(t, formatFixture)
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
	// The upgrade: roots.json is gone, the journal took its place, and a
	// second open finds in it what the document held.
	if _, err := os.Stat(filepath.Join(dir, "vstore", "roots.json")); !os.IsNotExist(err) {
		t.Errorf("roots.json survived the open (err %v)", err)
	}
	if got, want := versionLogs(t, dir), v1Logs(t); !reflect.DeepEqual(got, want) {
		t.Errorf("root logs on a second open:\n got: %+v\nwant: %+v", got, want)
	}
}
