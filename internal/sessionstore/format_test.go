package sessionstore

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/reliable-cda/cda/internal/dialogue"
	"github.com/reliable-cda/cda/internal/framelog"
	"github.com/reliable-cda/cda/internal/vstore"
)

// The on-disk format pins. testdata/format-v6 is a data directory in the
// `cdaserver -data-dir D` layout, written for formatScript by
// replayScript: shard WALs of binary records, and a journal of binary
// payloads — chunks whose data is this package's and vstore's binary
// codecs, a column leaf's JSON aside, and root records — every address
// 32 raw bytes. It is the store's one format: the tests below hold this
// code to writing its bytes and to reading what it holds, and Open
// refuses anything older — format-v5's JSON journal payloads and
// format-v4's JSON WAL records among it — with a *vstore.FormatError,
// leaving it as it was.

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

// shardFiles are a data directory's WALs.
var shardFiles = []string{"shard-00.wal", "shard-01.wal"}

// fixtures pairs each fixture dialogue with its v6 and v5 directories.
var fixtures = []struct {
	v6, v5 string
	script func() []formatTurn
}{{formatFixtureV6, formatFixtureV5, formatScript}, {treeFixtureV6, treeFixtureV5, treeScript}}

// TestFormatWritesV6Bytes replays both fixture dialogues and requires
// every file to hash equal to the v6 fixture's — the long session's
// journal across two folds, from trees remembered turn to turn — nothing
// else to be written, and the root logs to be the ones the fixture
// recorded. The WALs are also v5's, and so are the logs but for the
// addresses: binary journal payloads moved no byte of the WAL and no
// version's turn or stamp.
func TestFormatWritesV6Bytes(t *testing.T) {
	for _, fx := range fixtures {
		dir := t.TempDir()
		_, vs := replayScript(t, dir, fx.script())
		got, want := readTree(t, dir), readTree(t, fx.v6)
		requireSameFiles(t, got, want, append([]string{"vstore/chunks.pack"}, shardFiles...))
		requireSameFiles(t, got, readTree(t, fx.v5), shardFiles)
		if len(got) != 3 || len(want) != 4 {
			t.Errorf("%s: replay wrote %d files, fixture has %d; want 3, and %s beside them", fx.v6, len(got), len(want), fixtureLogs)
		}
		logs := logsOf(t, vs)
		if want := recordedLogs(t, fx.v6); !reflect.DeepEqual(logs, want) {
			t.Errorf("%s: root logs\n got: %+v\nwant: %+v", fx.v6, logs, want)
		}
		if got, want := versionsOf(logs), versionsOf(recordedLogs(t, fx.v5)); got != want {
			t.Errorf("%s: versions (turn, stamp)\n got: %s\nwant: %s", fx.v5, got, want)
		}
	}
}

// versionsOf renders root logs without their addresses: each root's
// versions as turn and stamp.
func versionsOf(logs map[string][]vstore.Commit) string {
	var roots []string
	for root := range logs {
		roots = append(roots, root)
	}
	slices.Sort(roots)
	var sb strings.Builder
	for _, root := range roots {
		fmt.Fprintf(&sb, "%s:", root)
		for _, c := range logs[root] {
			fmt.Fprintf(&sb, " %d@%d", c.Turn, c.Stamp)
		}
		sb.WriteString("\n")
	}
	return sb.String()
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
	tree, err := encodeSessionTree(vstore.NewMemory().NewBatch(nil), ss)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// requireNextTurn commits one more pair on a session a fixture's writer
// versioned, and requires the version to be this code's tree over that
// one: the head's parent is the old head, the tree is the one a cold
// encode cuts — sealed windows, then a chunk per pair — the old tree's
// sealed chunks are in it and not written again, the open window is
// written as pair chunks at most once, and the version before still
// reads back as it did.
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

// TestOpensFloorDirectories opens a copy of each v6 directory: it holds
// every root log, transcript and as-of read its writer recorded, and
// every session's next turn is this code's tree over the recorded one.
func TestOpensFloorDirectories(t *testing.T) {
	for _, fx := range fixtures {
		st, vs := openFixture(t, copyFixture(t, fx.v6))
		transcripts := scriptTranscripts(fx.script())
		requireRecorded(t, st, vs, recordedLogs(t, fx.v6), transcripts)
		var ids []string
		for id := range transcripts {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		for _, id := range ids {
			requireNextTurn(t, st, vs, id)
		}
		abandon(t, st, vs)
	}
}

// TestOpensFloorWithEmptiedWALs opens a copy of each v6 directory with
// its WALs emptied, as Close leaves every WAL once it has compacted it:
// the store serves each live session the prefix of its script transcript
// that its shard root holds, and every as-of read the writer recorded.
func TestOpensFloorWithEmptiedWALs(t *testing.T) {
	for _, fx := range fixtures {
		transcripts := scriptTranscripts(fx.script())
		dir := copyFixture(t, fx.v6)
		for _, name := range shardFiles {
			if err := os.WriteFile(filepath.Join(dir, name), nil, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		st, vs := openFixture(t, dir)
		live := 0
		for id, transcript := range transcripts {
			e, status := st.Get(id)
			if status != Found {
				continue
			}
			live++
			if got := transcriptOf(t, e); got != turnPrefix(transcript, strings.Count(got, "\n")) {
				t.Errorf("%s emptied: session %s holds %q, no prefix of its transcript", fx.v6, id, got)
			}
		}
		if live == 0 {
			t.Errorf("%s emptied: no session is live, want the ones its shard roots hold", fx.v6)
		}
		for root, log := range recordedLogs(t, fx.v6) {
			id, ok := strings.CutPrefix(root, "session/")
			if !ok {
				continue
			}
			for _, c := range log {
				sess, at, err := st.TranscriptAsOf(id, c.Turn)
				if err != nil || at != c || Transcript(sess) != turnPrefix(transcripts[id], c.Turn) {
					t.Errorf("%s emptied: %s as of turn %d = commit %+v, %v; want %+v and that prefix of the transcript", fx.v6, id, c.Turn, at, err, c)
				}
			}
		}
		abandon(t, st, vs)
	}
}

// pathsUnder lists every file and directory under dir, by slash-separated
// relative path, directories with a trailing slash.
func pathsUnder(t *testing.T, dir string) []string {
	t.Helper()
	var paths []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if d.IsDir() {
			rel += "/"
		}
		paths = append(paths, filepath.ToSlash(rel))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

// TestOpenRefusesPreFloorDirectories opens the v5 directories, whose
// journals hold JSON payloads, the v4 ones, whose WALs hold JSON records,
// and copies of format-v6 that hold, beside its files, among its WAL's
// records or among its journal's frames, what only older stores wrote.
// Each Open is a *vstore.FormatError naming a file in the directory — a
// JSON journal payload the last commit that reads one — and leaves the
// directory as it found it: every file's bytes — a torn tail after a
// JSON record too — and no path created.
func TestOpenRefusesPreFloorDirectories(t *testing.T) {
	journal, err := os.ReadFile(filepath.Join(formatFixtureV6, "vstore", "chunks.pack"))
	if err != nil {
		t.Fatal(err)
	}
	wal, err := os.ReadFile(filepath.Join(formatFixtureV6, "shard-00.wal"))
	if err != nil {
		t.Fatal(err)
	}
	oldWAL, err := os.ReadFile(filepath.Join(formatFixtureV4, "shard-00.wal"))
	if err != nil {
		t.Fatal(err)
	}
	payloads, _ := framelog.Scan(walMagic, oldWAL)
	jsonRecord := framelog.Encode(walMagic, payloads[len(payloads)-1])
	torn := framelog.Encode(walMagic, payloads[0])[:framelog.HeaderSize+3]
	magic := journal[0] // every frame starts with the journal's magic
	pack := func(parts ...any) map[string][]byte {
		var b []byte
		for _, part := range parts {
			switch v := part.(type) {
			case string:
				b = append(b, framelog.Encode(magic, []byte(v))...)
			case []byte:
				b = append(b, v...)
			}
		}
		return map[string][]byte{"vstore/chunks.pack": b}
	}
	leafJournal := func(fixture string) []byte {
		raw, err := os.ReadFile(filepath.Join("..", "vstore", "testdata", fixture, "chunks.pack"))
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	first := recordedLogs(t, formatFixtureV6)[SessionRoot("s0001")][0]
	// jsonReader is what a refusal of a JSON journal payload names: the
	// last commit that reads one.
	const jsonReader = "8992f61"
	for _, row := range []struct {
		name    string
		fixture string            // copied; empty is format-v6
		files   map[string][]byte // written over the copy; nil removes the path
		reader  string            // the refusal's Reader contains it
	}{
		{"format-v5's JSON journal payloads", formatFixtureV5, nil, jsonReader},
		{"tree-v5's JSON journal payloads", treeFixtureV5, nil, jsonReader},
		{"leaf-v5's JSON column leaves", "", pack(leafJournal("leaf-v5")), jsonReader},
		{"readings-v5's JSON column leaves", "", pack(leafJournal("readings-v5")), jsonReader},
		{"format-v4's JSON WAL records", formatFixtureV4, nil, ""},
		{"tree-v4's JSON WAL records", treeFixtureV4, nil, ""},
		{"a JSON WAL record after binary ones, and a torn tail", "", map[string][]byte{"shard-00.wal": slices.Concat(wal, jsonRecord, torn)}, ""},
		{"a root document", "", map[string][]byte{"vstore/roots.json": []byte(`{"stamp":1,"roots":{}}`)}, ""},
		{"a shard snapshot and no version store", "", map[string][]byte{"shard-01.snap": []byte(`{"max_num":3,"sessions":[]}`), "vstore": nil}, ""},
		{"a JSON chunk with refs ahead of the versions", "", pack(`{"k":"sess","r":["`+string(first.Tree)+`"]}`, journal), jsonReader},
		{"a JSON append record", "", pack(journal, `{"root":"session/s0001","commit":"`+string(first.Hash)+`"}`), jsonReader},
		{"a JSON log record", "", pack(journal, `{"root":"session/s0001","log":[],"stamp":99}`), jsonReader},
		{"a JSON leaf", "", pack(journal, `{"k":"leaf","d":{"t":1,"v":[1]}}`), jsonReader},
		{"a JSON chunk with no kind", "", pack(journal, `{}`), jsonReader},
	} {
		fixture := row.fixture
		if fixture == "" {
			fixture = formatFixtureV6
		}
		dir := copyFixture(t, fixture)
		for name, data := range row.files {
			path := filepath.Join(dir, filepath.FromSlash(name))
			if data == nil {
				err = os.RemoveAll(path)
			} else {
				err = os.WriteFile(path, data, 0o644)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		files, paths := readTree(t, dir), pathsUnder(t, dir)
		st, err := Open(Config{Dir: dir, Shards: 2, SnapshotEvery: 8})
		var old *vstore.FormatError
		if !errors.As(err, &old) || !strings.HasPrefix(old.Path, dir) {
			if st != nil {
				abandon(t, st, st.Versions())
			}
			t.Fatalf("%s: Open = %v, want a *vstore.FormatError naming a file in the directory", row.name, err)
		}
		if !strings.Contains(old.Reader, row.reader) || !strings.Contains(err.Error(), row.reader) {
			t.Errorf("%s: Open = %v, want it to name %q as the last reader", row.name, err, row.reader)
		}
		t.Logf("%s: %v", row.name, err)
		if got := pathsUnder(t, dir); !slices.Equal(got, paths) {
			t.Errorf("%s: the refused directory holds %v, it held %v", row.name, got, paths)
		}
		if got := readTree(t, dir); !reflect.DeepEqual(got, files) {
			t.Errorf("%s: the refused directory's files changed", row.name)
		}
	}
}
