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
	"slices"
	"testing"

	"github.com/reliable-cda/cda/internal/dialogue"
	"github.com/reliable-cda/cda/internal/vstore"
)

// The on-disk format pins. testdata/format-v1 is a data directory in the
// `cdaserver -data-dir D -versioned` layout, written for formatScript (by
// what is now replayScript) at the commit *before* the storage spine (internal/framelog) existed:
// shard WALs and snapshots, the chunk pack, roots.json. testdata/format-v2
// is the same dialogue written at the commit that made chunks.pack the
// version store's one journal: the same shard files, root records
// interleaved with the chunks, no roots.json. testdata/format-v3 is the
// dialogue again at the commit that cut a session's open window into one
// chunk per pair (tree_fixture_test.go): the shard files and the
// journal's frame layout as before, other session trees in it.
// testdata/format-v4 is what this code writes: the same shard WALs, and
// a journal whose chunks with refs and whose append records spell every
// address as 32 raw bytes. The tests below hold the format still in both
// directions — v1, v2 and v3 open on this code (v1 is upgraded once) and
// take their next turn, and this code writes the v4 bytes. Each older
// fixture's shard-01.snap, the JSON checkpoint its writer published
// beside the shard root, is read once and removed (upgrade_test.go);
// this code writes none.

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

// openFixture opens dir in the fixtures' configuration; the caller
// abandons the stores (a Close would compact, which is a shard version).
func openFixture(t *testing.T, dir string) (*Store, *vstore.Store) {
	t.Helper()
	vs, err := vstore.Open(vstore.Config{Dir: filepath.Join(dir, "vstore")})
	if err != nil {
		t.Fatal(err)
	}
	st, err := Open(Config{Dir: dir, Shards: 2, SnapshotEvery: 8, Versions: vs})
	if err != nil {
		t.Fatal(err)
	}
	return st, vs
}

// openFormatStores is openFixture with the stores closed at cleanup.
func openFormatStores(t *testing.T, dir string) (*Store, *vstore.Store) {
	t.Helper()
	st, vs := openFixture(t, dir)
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

// readTree maps every file under dir, by slash-separated relative
// path, to its bytes.
func readTree(t testing.TB, dir string) map[string][]byte {
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
// move: the WALs.
var shardFiles = []string{"shard-00.wal", "shard-01.wal"}

// TestFormatWritesParentBytes replays the fixture's dialogue into a
// fresh directory and requires the shard WALs to hash equal to the ones
// the v1 commit wrote: same file names, same frames, same JSON. (The
// version store's files are pinned by the v2 fixture.)
func TestFormatWritesParentBytes(t *testing.T) {
	dir := t.TempDir()
	replayScript(t, dir, formatScript())
	requireSameFiles(t, readTree(t, dir), readTree(t, formatFixture), shardFiles)
}

// TestFormatWritesV2Bytes replays the dialogue and requires the shard
// files to hash equal to the v2 fixture's, and nothing but them and the
// journal to be written — the fixture's fourth file is its snapshot.
// (What the journal holds is the v3 fixtures'.)
func TestFormatWritesV2Bytes(t *testing.T) {
	dir := t.TempDir()
	replayScript(t, dir, formatScript())
	got, want := readTree(t, dir), readTree(t, formatFixtureV2)
	requireSameFiles(t, got, want, shardFiles)
	if len(got) != 3 || len(want) != 4 {
		t.Errorf("replay wrote %d files, fixture has %d; want 3, and shard-01.snap beside them", len(got), len(want))
	}
}

// TestFormatWritesV3Bytes replays both fixture dialogues and requires
// the shard WALs to hash equal to the v3 fixture's — the journal's
// binary refs left the WAL as it was — and the v3 directory, whose
// journal the writer before them left, to open on this code holding
// every root log, transcript and as-of read its writer recorded. (What
// this code's journal holds is the v4 fixtures'.)
func TestFormatWritesV3Bytes(t *testing.T) {
	for _, fx := range []struct {
		fixture string
		script  []formatTurn
	}{{formatFixtureV3, formatScript()}, {treeFixtureV3, treeScript()}} {
		dir := t.TempDir()
		replayScript(t, dir, fx.script)
		requireSameFiles(t, readTree(t, dir), readTree(t, fx.fixture), shardFiles)
		st, vs := openFixture(t, copyFixture(t, fx.fixture))
		requireRecorded(t, st, vs, recordedLogs(t, fx.fixture), scriptTranscripts(fx.script))
		abandon(t, st, vs)
	}
}

// TestFormatWritesV4Bytes replays both fixture dialogues and requires
// every file to hash equal to the v4 fixture's, the journal included —
// the long session's across two folds, from trees remembered turn to
// turn — nothing else to be written, and the root logs to be the ones
// the fixture recorded.
func TestFormatWritesV4Bytes(t *testing.T) {
	for _, fx := range []struct {
		fixture string
		script  []formatTurn
	}{{formatFixtureV4, formatScript()}, {treeFixtureV4, treeScript()}} {
		dir := t.TempDir()
		_, vs := replayScript(t, dir, fx.script)
		got, want := readTree(t, dir), readTree(t, fx.fixture)
		requireSameFiles(t, got, want, append([]string{"vstore/chunks.pack"}, shardFiles...))
		if len(got) != 3 || len(want) != 4 {
			t.Errorf("%s: replay wrote %d files, fixture has %d; want 3, and %s beside them", fx.fixture, len(got), len(want), fixtureLogs)
		}
		if got, want := logsOf(t, vs), recordedLogs(t, fx.fixture); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: root logs\n got: %+v\nwant: %+v", fx.fixture, got, want)
		}
	}
}

// TestV3UpgradesToBinaryRefs opens a copy of each v3 directory and of
// the v4 one this code writes for the same script. Both hold what their
// writers recorded; every session's next turn is this code's tree over
// the old one (requireNextTurn) and journals exactly the bytes the same
// turn journals on the v4 directory. So the upgrade costs a session
// nothing past the turn that makes it: a turns chunk has no refs and
// keeps its JSON envelope and its address, and the session node and
// commit a turn writes are new at every turn anyway. A reopen holds the
// logs the stores held, and committing a head again writes nothing.
func TestV3UpgradesToBinaryRefs(t *testing.T) {
	for _, fx := range []struct {
		old, cur string
		script   []formatTurn
	}{{formatFixtureV3, formatFixtureV4, formatScript()}, {treeFixtureV3, treeFixtureV4, treeScript()}} {
		transcripts := scriptTranscripts(fx.script)
		var ids []string
		for id := range transcripts {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		grew := map[string][]int64{}
		for _, fixture := range []string{fx.old, fx.cur} {
			dir := copyFixture(t, fixture)
			st, vs := openFixture(t, dir)
			requireRecorded(t, st, vs, recordedLogs(t, fixture), transcripts)
			for _, id := range ids {
				_, before := vs.JournalSynced()
				requireNextTurn(t, st, vs, id)
				_, after := vs.JournalSynced()
				grew[fixture] = append(grew[fixture], after-before)
			}
			logs := logsOf(t, vs)
			abandon(t, st, vs)
			vs, err := vstore.Open(vstore.Config{Dir: filepath.Join(dir, "vstore")})
			if err != nil {
				t.Fatal(err)
			}
			if got := logsOf(t, vs); !reflect.DeepEqual(got, logs) {
				t.Fatalf("%s: root logs after the next turns and a reopen\n got: %+v\nwant: %+v", fixture, got, logs)
			}
			for root, log := range logs {
				head := log[len(log)-1]
				_, size := vs.JournalSynced()
				if again, err := vs.Commit(root, head.Tree, head.Turn); err != nil || again != head {
					t.Fatalf("%s: committing %s's head again = %+v, %v; want %+v", fixture, root, again, err, head)
				}
				if _, after := vs.JournalSynced(); after != size {
					t.Fatalf("%s: committing %s's head again wrote %d bytes", fixture, root, after-size)
				}
			}
			if err := vs.Close(); err != nil {
				t.Fatal(err)
			}
		}
		t.Logf("%s: the next turn of %v journals %v bytes; on %s, %v", fx.old, ids, grew[fx.old], fx.cur, grew[fx.cur])
		if !slices.Equal(grew[fx.old], grew[fx.cur]) {
			t.Errorf("%s: the next turns journal %v bytes, on %s %v", fx.old, grew[fx.old], fx.cur, grew[fx.cur])
		}
	}
}

// copyFixture copies a fixture directory into a fresh temp dir.
func copyFixture(t testing.TB, fixture string) string {
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
	logs := logsOf(t, vs)
	if err := vs.Close(); err != nil {
		t.Fatal(err)
	}
	return logs
}

// logsOf maps every root of vs to its full commit log.
func logsOf(t *testing.T, vs *vstore.Store) map[string][]vstore.Commit {
	t.Helper()
	logs := map[string][]vstore.Commit{}
	for _, root := range vs.Roots() {
		var err error
		if logs[root], err = vs.Log(root); err != nil {
			t.Fatal(err)
		}
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

// requireRecorded holds an opened fixture to what its writer recorded
// and its script says: the root logs entry for entry — tree hashes are
// the writer's, this code computes none of them — every head's closure
// whole, every shard version decodable, every live transcript, and for
// every version of every session the as-of read of exactly that prefix.
func requireRecorded(t *testing.T, st *Store, vs *vstore.Store, want map[string][]vstore.Commit, transcripts map[string]string) {
	t.Helper()
	got := logsOf(t, vs)
	for root, log := range got {
		if head := log[len(log)-1]; !vs.HasClosure(head.Hash) {
			t.Errorf("root %s head %s: closure incomplete in the fixture journal", root, head.Hash)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("root logs\n got: %+v\nwant: %+v", got, want)
	}
	if len(got) < len(transcripts)+1 {
		t.Fatalf("roots = %v, want %d sessions and a compacted shard", vs.Roots(), len(transcripts))
	}
	for id, transcript := range transcripts {
		e, status := st.Get(id)
		if status != Found {
			t.Fatalf("session %s: status %v", id, status)
		}
		if got := transcriptOf(t, e); got != transcript {
			t.Errorf("session %s transcript:\n got: %q\nwant: %q", id, got, transcript)
		}
		for _, c := range want[SessionRoot(id)] {
			sess, at, err := st.TranscriptAsOf(id, c.Turn)
			if err != nil || at != c || Transcript(sess) != turnPrefix(transcript, c.Turn) {
				t.Fatalf("session %s as of turn %d = commit %+v, %v; want %+v and that prefix of the transcript", id, c.Turn, at, err, c)
			}
		}
	}
	for shard := 0; shard < st.Shards(); shard++ {
		for _, c := range want[ShardRoot(shard)] {
			snap, err := decodeShardTree(vs, c.Tree)
			if err != nil {
				t.Fatalf("shard %d version at %d: %v", shard, c.Turn, err)
			}
			for _, ss := range snap.Sessions {
				if turns := Transcript(sessionOf(ss)); turns != turnPrefix(transcripts[ss.ID], len(ss.Turns)) {
					t.Errorf("shard %d version at %d holds %q for %s, no prefix of its transcript", shard, c.Turn, turns, ss.ID)
				}
			}
		}
	}
}

// sessionOf renders a decoded session state as a dialogue session.
func sessionOf(ss sessionSnap) *dialogue.Session {
	e := &Entry{sess: dialogue.NewSession()}
	for _, tr := range ss.Turns {
		appendTurn(e, tr)
	}
	return e.sess
}

// snapOf is a live session's committed state.
func snapOf(st *Store, id string) sessionSnap {
	sh := st.shards[st.ShardIndex(id)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.sessions[id].snap()
}

// coldTree is the tree a store that remembers nothing of ss cuts for it.
func coldTree(t testing.TB, ss sessionSnap) *sessionTree {
	t.Helper()
	ss.tree = nil
	tree, err := encodeSessionTree(vstore.NewMemory().NewBatch(), ss)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// requireNextTurn commits one more pair on a session an older tree
// layout may have versioned so far, and requires the version to be this
// code's tree over that one: the head's parent is the old head, the tree
// is the one a cold encode cuts — sealed windows, then a chunk per pair —
// the old tree's sealed chunks are in it and not written again, the open
// window is written as pair chunks at most once, and the version before
// still reads back as it did.
func requireNextTurn(t *testing.T, st *Store, vs *vstore.Store, id string) {
	t.Helper()
	old, err := vs.Head(SessionRoot(id))
	if err != nil {
		t.Fatal(err)
	}
	oldRefs, err := vs.Refs(old.Tree)
	if err != nil {
		t.Fatal(err)
	}
	e, status := st.Get(id)
	if status != Found {
		t.Fatalf("session %s: status %v", id, status)
	}
	before, chunks := transcriptOf(t, e), vs.NumChunks()
	commitPair(t, st, e, fmt.Sprintf("what comes after turn %d", old.Turn), "the next turn", 0.5)
	if err := st.DeferredError(st.ShardIndex(id)); err != nil {
		t.Fatalf("the next turn on %s: %v", id, err)
	}
	head, err := vs.Head(SessionRoot(id))
	if err != nil {
		t.Fatal(err)
	}
	turns := old.Turn + 2
	want := coldTree(t, snapOf(st, id))
	refs, err := vs.Refs(head.Tree)
	if err != nil {
		t.Fatal(err)
	}
	if head.Turn != turns || head.Parent != old.Hash || head.Tree != want.sess || !reflect.DeepEqual(refs, want.refs) || !vs.HasClosure(head.Hash) {
		t.Fatalf("%s after the next turn: head %+v over %d chunks, closure whole = %v; want turn %d on parent %s with tree %s",
			id, head, len(refs), vs.HasClosure(head.Hash), turns, old.Hash, want.sess)
	}
	sealed, open := turns/turnsPerChunk, (turns%turnsPerChunk+openUnit-1)/openUnit
	if len(refs) != sealed+open || !reflect.DeepEqual(refs[:old.Turn/turnsPerChunk], oldRefs[:old.Turn/turnsPerChunk]) {
		t.Fatalf("%s at turn %d lists %d chunks, want %d sealed (the %d it had among them) and %d of the open window",
			id, turns, len(refs), sealed, old.Turn/turnsPerChunk, open)
	}
	// New to the store: the window's chunks, the session node, the commit.
	if added := vs.NumChunks() - chunks; added > max(open, 1)+2 {
		t.Fatalf("the next turn on %s added %d chunks, want at most %d", id, added, max(open, 1)+2)
	}
	for turn, want := range map[int]string{old.Turn: before, turns: transcriptOf(t, e)} {
		sess, c, err := st.TranscriptAsOf(id, turn)
		if err != nil || c.Turn != turn || Transcript(sess) != want {
			t.Fatalf("%s as of turn %d after the next turn = commit at %d, %v; want %q", id, turn, c.Turn, err, want)
		}
	}
}

// TestFormatOpensParentDir opens a copy of the v1 fixture and requires
// everything its roots.json recorded and its dialogue must have produced
// — root logs, transcripts, every as-of read, replication cursors — that
// opening it upgraded the version store to the journal layout, which
// opens again with the same logs, and that every session takes its next
// turn over the old tree.
func TestFormatOpensParentDir(t *testing.T) {
	dir := copyFixture(t, formatFixture)
	want, transcripts := v1Logs(t), scriptTranscripts(formatScript())
	st, vs := openFixture(t, dir)
	requireRecorded(t, st, vs, want, transcripts)
	// Cursors: 3 creates + 15 turn records over the two shards, and the
	// same split a live replay has.
	live, _ := replayScript(t, t.TempDir(), formatScript())
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
	abandon(t, st, vs)
	// The upgrade: roots.json is gone, the journal took its place, and a
	// second open finds in it what the document held.
	if _, err := os.Stat(filepath.Join(dir, "vstore", "roots.json")); !os.IsNotExist(err) {
		t.Errorf("roots.json survived the open (err %v)", err)
	}
	if got := versionLogs(t, dir); !reflect.DeepEqual(got, want) {
		t.Errorf("root logs on a second open:\n got: %+v\nwant: %+v", got, want)
	}
	st, vs = openFormatStores(t, dir)
	for id := range transcripts {
		requireNextTurn(t, st, vs, id)
	}
}

// TestOpensV2Trees opens the directories the parent of the per-pair open
// window wrote — the format dialogue, and the tree dialogue whose long
// session has two sealed chunks and a 16-turn tail — with no upgrade
// step for the trees: what was recorded reads back, open after open;
// each session's next turn is this code's tree over the old one; and
// the long session goes on across its next fold with every version, old
// cut and new, still reading back exactly.
func TestOpensV2Trees(t *testing.T) {
	for _, fx := range []struct {
		fixture string
		want    map[string][]vstore.Commit
		script  []formatTurn
	}{
		{formatFixtureV2, v1Logs(t), formatScript()}, // the commits roots.json lists, journalled
		{treeFixtureV2, recordedLogs(t, treeFixtureV2), treeScript()},
	} {
		dir := copyFixture(t, fx.fixture)
		transcripts := scriptTranscripts(fx.script)
		for open := 1; open <= 2; open++ {
			st, vs := openFixture(t, dir)
			requireRecorded(t, st, vs, fx.want, transcripts)
			abandon(t, st, vs)
		}
		// No upgrade step for the trees: two opens wrote nothing, and only
		// removed the snapshot, whose shard root the journal already has.
		got := readTree(t, dir)
		requireSameFiles(t, got, readTree(t, fx.fixture), append([]string{"vstore/chunks.pack"}, shardFiles...))
		if _, ok := got["shard-01.snap"]; ok {
			t.Errorf("%s: shard-01.snap survived two opens", fx.fixture)
		}
		st, vs := openFormatStores(t, dir)
		for id := range transcripts {
			requireNextTurn(t, st, vs, id)
		}
	}
}

// TestV2TreeContinuesAcrossFold takes the tree fixture's long session
// from its 80 recorded turns past turn 96, where the window the parent
// left as a 16-turn tail is sealed: every version — the recorded ones
// and the ones this code adds — reads back as exactly its prefix, and
// the chunks the parent sealed are the ones this code seals.
func TestV2TreeContinuesAcrossFold(t *testing.T) {
	dir := copyFixture(t, treeFixtureV2)
	st, vs := openFormatStores(t, dir)
	const id = "s0001"
	e, status := st.Get(id)
	if status != Found {
		t.Fatalf("session %s: status %v", id, status)
	}
	for j := treeLongPairs; j < 50; j++ {
		commitPair(t, st, e, fmt.Sprintf("how many vacancies in round %d", j), "as many as before", 0.5)
	}
	if err := st.DeferredError(st.ShardIndex(id)); err != nil {
		t.Fatal(err)
	}
	log, err := st.SessionVersions(id)
	if err != nil || len(log) != 50 {
		t.Fatalf("%s has %d versions (%v), want 50", id, len(log), err)
	}
	transcript := transcriptOf(t, e)
	for i, c := range log {
		sess, _, err := st.TranscriptAsOf(id, c.Turn)
		if err != nil || c.Turn != 2*(i+1) || Transcript(sess) != turnPrefix(transcript, c.Turn) {
			t.Fatalf("version %d of %s is at turn %d (%v); want turn %d and that prefix of the transcript", i, id, c.Turn, err, 2*(i+1))
		}
	}
	// Sealed chunks: the parent's two are in every later tree, and in the
	// v3 fixture's, which this code wrote from nothing.
	sealedAt := func(vs *vstore.Store, turn int) []vstore.Hash {
		c, err := vs.AsOf(SessionRoot(id), turn)
		if err != nil {
			t.Fatal(err)
		}
		refs, err := vs.Refs(c.Tree)
		if err != nil {
			t.Fatal(err)
		}
		return refs[:turn/turnsPerChunk]
	}
	parents := sealedAt(vs, 2*treeLongPairs)
	if got := sealedAt(vs, 96); len(parents) != 2 || len(got) != 3 || !reflect.DeepEqual(got[:2], parents) {
		t.Fatalf("sealed chunks at turn 96 = %v, want three, the first two the parent's %v", got, parents)
	}
	vs3, err := vstore.Open(vstore.Config{Dir: filepath.Join(copyFixture(t, treeFixtureV3), "vstore")})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := vs3.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	if got := sealedAt(vs3, 2*treeLongPairs); !reflect.DeepEqual(got, parents) {
		t.Fatalf("tree-v3 seals %v, tree-v2 sealed %v", got, parents)
	}
}
