package sessionstore

import (
	"bytes"
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

	"github.com/reliable-cda/cda/internal/framelog"
	"github.com/reliable-cda/cda/internal/vstore"
)

// The on-disk format pins. This code writes one log, the journal under
// vstore/: a session's creation, each turn pair and an eviction are each
// a record in it, and there is no shard WAL. testdata/format-v8 and
// tree-v8 are data directories in the `cdaserver -data-dir D` layout that
// the last commit to write shard WALs closed: every WAL empty, every
// shard compacted. They open, and lose their empty WALs. format-v7 and
// tree-v7 are the same dialogues that commit left as a kill leaves them,
// with records in the WALs; there is no migration for those, so Open
// refuses them with a *vstore.FormatError naming that commit, and leaves
// them as they were. format-v6 is v7 before commit records — a tree node,
// a commit chunk and an append record a version — which this code reads
// with its WALs emptied, and Open refuses anything older — format-v5's
// JSON journal payloads, format-v4's JSON WAL records and the set records
// only retention wrote among it — naming the last commit that reads the
// oldest format it holds.

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

// shardFiles are the WALs of a data directory older stores wrote.
var shardFiles = []string{"shard-00.wal", "shard-01.wal"}

// fixtures pairs each fixture dialogue with its directories: v8, closed
// by the last writer of shard WALs, which this code opens, v7, that
// writer's killed directory, which it refuses, v6, the format before
// commit records, which it reads once its WALs are emptied, and v5,
// which it refuses.
var fixtures = []struct {
	v8, v7, v6, v5 string
	script         func() []formatTurn
}{{formatFixtureV8, formatFixtureV7, formatFixtureV6, formatFixtureV5, formatScript}, {treeFixtureV8, treeFixtureV7, treeFixtureV6, treeFixtureV5, treeScript}}

// TestFormatWritesOneLog replays both fixture dialogues and closes the
// stores: the directory holds the journal and nothing else, a second
// replay writes it byte for byte, and every version pins the tree the v8
// writer's did at the same turn — a tree is a function of the state it
// holds — behind a version at turn 0 that the v8 writer did not make: a
// session's creation, and the empty shard a shard's first record lands
// behind.
func TestFormatWritesOneLog(t *testing.T) {
	for _, fx := range fixtures {
		var journals [][]byte
		for range 2 {
			dir := t.TempDir()
			st, vs := openFixture(t, dir)
			var entries []*Entry
			for range 3 {
				e, err := st.NewSession()
				if err != nil {
					t.Fatal(err)
				}
				entries = append(entries, e)
			}
			for _, turn := range fx.script() {
				commitPair(t, st, entries[turn.session], turn.q, turn.a, turn.conf)
			}
			if err := errors.Join(st.Close(), vs.Close()); err != nil {
				t.Fatal(err)
			}
			files := readTree(t, dir)
			if len(files) != 1 || len(files["vstore/chunks.pack"]) == 0 {
				t.Fatalf("%s replayed: the directory holds %v, want vstore/chunks.pack alone", fx.v8, pathsUnder(t, dir))
			}
			journals = append(journals, files["vstore/chunks.pack"])
			logs, want := versionLogs(t, dir), recordedLogs(t, fx.v8)
			if len(logs) != len(want) {
				t.Fatalf("%s replayed: %d roots, the v8 writer's %d", fx.v8, len(logs), len(want))
			}
			for root, log := range logs {
				if len(log) == 0 || log[0].Turn != 0 {
					t.Fatalf("%s replayed: %s begins at %+v, want a version at turn 0", fx.v8, root, log)
				}
				if got, want := treesOf(log[1:]), treesOf(want[root]); got != want {
					t.Errorf("%s replayed: %s (turn, tree)\n got: %s\nwant: %s", fx.v8, root, got, want)
				}
			}
		}
		if !bytes.Equal(journals[0], journals[1]) {
			t.Errorf("%s: two replays wrote journals of %d and %d bytes that differ", fx.v8, len(journals[0]), len(journals[1]))
		}
	}
}

// treesOf renders a root log without commit addresses, parents or stamps.
func treesOf(log []vstore.Commit) string {
	var sb strings.Builder
	for _, c := range log {
		fmt.Fprintf(&sb, " %d:%s", c.Turn, c.Tree)
	}
	return sb.String()
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
				if turns := Transcript(ss.session()); turns != turnPrefix(transcripts[ss.ID], len(ss.Turns)) {
					t.Errorf("shard %d version at %d holds %q for %s, no prefix of its transcript", shard, c.Turn, turns, ss.ID)
				}
			}
		}
	}
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

// TestOpensFloorDirectories opens a copy of each v8 directory: it holds
// every root log, transcript and as-of read its writer recorded, its
// empty WALs are gone, every session's next turn is this code's tree over
// the recorded one, and the directory reopens to the root logs the store
// held.
func TestOpensFloorDirectories(t *testing.T) {
	for _, fx := range fixtures {
		dir := copyFixture(t, fx.v8)
		st, vs := openFixture(t, dir)
		transcripts := scriptTranscripts(fx.script())
		requireRecorded(t, st, vs, recordedLogs(t, fx.v8), transcripts)
		if got := pathsUnder(t, dir); !slices.Equal(got, []string{"./", fixtureLogs, "vstore/", "vstore/chunks.pack"}) {
			t.Errorf("%s opened: the directory holds %v, want the journal and %s alone", fx.v8, got, fixtureLogs)
		}
		var ids []string
		for id := range transcripts {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		for _, id := range ids {
			requireNextTurn(t, st, vs, id)
		}
		logs := logsOf(t, vs)
		abandon(t, st, vs)
		if got := versionLogs(t, dir); !reflect.DeepEqual(got, logs) {
			t.Errorf("%s reopened after the next turns: root logs\n got: %+v\nwant: %+v", fx.v8, got, logs)
		}
	}
}

// TestOpensFloorWithEmptiedWALs opens a copy of each v7 and v6 directory
// with its WALs emptied, as Close leaves every WAL once it has compacted
// it: the store serves each live session a prefix of its script
// transcript, and every as-of read the writer recorded.
func TestOpensFloorWithEmptiedWALs(t *testing.T) {
	for _, fx := range fixtures {
		for _, fixture := range []string{fx.v7, fx.v6} {
			requireOpensEmptied(t, fixture, scriptTranscripts(fx.script()))
		}
	}
}

// requireOpensEmptied is TestOpensFloorWithEmptiedWALs for one fixture.
func requireOpensEmptied(t *testing.T, fixture string, transcripts map[string]string) {
	t.Helper()
	dir := copyFixture(t, fixture)
	for _, name := range shardFiles {
		if err := os.WriteFile(filepath.Join(dir, name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st, vs := openFixture(t, dir)
	if got := pathsUnder(t, dir); slices.Contains(got, shardFiles[0]) || slices.Contains(got, shardFiles[1]) {
		t.Errorf("%s emptied and opened: the directory still holds its empty WALs: %v", fixture, got)
	}
	live := 0
	for id, transcript := range transcripts {
		e, status := st.Get(id)
		if status != Found {
			continue
		}
		live++
		if got := transcriptOf(t, e); got != turnPrefix(transcript, strings.Count(got, "\n")) {
			t.Errorf("%s emptied: session %s holds %q, no prefix of its transcript", fixture, id, got)
		}
	}
	if live == 0 {
		t.Errorf("%s emptied: no session is live, want the ones its shard roots hold", fixture)
	}
	for root, log := range recordedLogs(t, fixture) {
		id, ok := strings.CutPrefix(root, "session/")
		if !ok {
			continue
		}
		for _, c := range log {
			sess, at, err := st.TranscriptAsOf(id, c.Turn)
			if err != nil || at != c || Transcript(sess) != turnPrefix(transcripts[id], c.Turn) {
				t.Errorf("%s emptied: %s as of turn %d = commit %+v, %v; want %+v and that prefix of the transcript", fixture, id, c.Turn, at, err, c)
			}
		}
	}
	abandon(t, st, vs)
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

// TestOpenRefusesPreFloorDirectories opens the v7 and v6 directories,
// whose WALs hold records, the v5 directories, whose journals hold JSON
// payloads, the v4 ones, whose WALs hold JSON records, and copies of
// format-v8 that hold, beside its files, in a WAL or among its journal's
// frames, what only older stores wrote. Each Open is a *vstore.FormatError
// naming a file in the directory and the last commit that reads the
// oldest format in it — a JSON WAL before a JSON journal, a journal
// before a WAL of binary records — and leaves the directory as it found
// it: every file's bytes — a torn tail after a JSON record too — and no
// path created.
func TestOpenRefusesPreFloorDirectories(t *testing.T) {
	journal, err := os.ReadFile(filepath.Join(formatFixtureV8, "vstore", "chunks.pack"))
	if err != nil {
		t.Fatal(err)
	}
	wal, err := os.ReadFile(filepath.Join(formatFixtureV7, "shard-00.wal"))
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
	with := func(files map[string][]byte, name string, data []byte) map[string][]byte {
		files[name] = data
		return files
	}
	first := recordedLogs(t, formatFixtureV8)[SessionRoot("s0001")][0]
	// The last commit that reads each older format: a shard WAL with
	// records in it, a JSON journal payload, a WAL of JSON records, a set
	// root record.
	const walReader, jsonReader, jsonWALReader, setReader = "0230b50", "8992f61", "32443c0", "7c56897"
	for _, row := range []struct {
		name    string
		fixture string            // copied; empty is format-v8
		files   map[string][]byte // written over the copy; nil removes the path
		reader  string            // the refusal's Reader contains it
	}{
		{"format-v7's WAL records", formatFixtureV7, nil, walReader},
		{"tree-v7's WAL records", treeFixtureV7, nil, walReader},
		{"format-v6's WAL records", formatFixtureV6, nil, walReader},
		{"one record in shard-01.wal", "", map[string][]byte{"shard-01.wal": framelog.Encode(walMagic, walPayloads(t, formatFixtureV7)[0])}, walReader},
		{"a torn record in a WAL", "", map[string][]byte{"shard-00.wal": torn}, walReader},
		{"format-v5's JSON journal payloads", formatFixtureV5, nil, jsonReader},
		{"tree-v5's JSON journal payloads", treeFixtureV5, nil, jsonReader},
		{"leaf-v5's JSON column leaves", "", pack(leafJournal("leaf-v5")), jsonReader},
		{"readings-v5's JSON column leaves", "", pack(leafJournal("readings-v5")), jsonReader},
		{"leaf-v5's JSON column leaves behind a WAL record", "", with(pack(leafJournal("leaf-v5")), "shard-00.wal", wal), jsonReader},
		{"retention-v7's set root records", "", pack(leafJournal("retention-v7")), setReader},
		{"format-v4's JSON WAL records", formatFixtureV4, nil, jsonWALReader},
		{"tree-v4's JSON WAL records", treeFixtureV4, nil, jsonWALReader},
		{"a JSON WAL record after binary ones, and a torn tail", "", map[string][]byte{"shard-00.wal": slices.Concat(wal, jsonRecord, torn)}, jsonWALReader},
		{"a root document", "", map[string][]byte{"vstore/roots.json": []byte(`{"stamp":1,"roots":{}}`)}, ""},
		{"a root document behind a WAL record", "", map[string][]byte{"vstore/roots.json": []byte(`{"stamp":1,"roots":{}}`), "shard-00.wal": wal}, ""},
		{"a shard snapshot and no version store", "", map[string][]byte{"shard-01.snap": []byte(`{"max_num":3,"sessions":[]}`), "vstore": nil}, ""},
		{"a JSON chunk with refs ahead of the versions", "", pack(`{"k":"sess","r":["`+string(first.Tree)+`"]}`, journal), jsonReader},
		{"a JSON append record", "", pack(journal, `{"root":"session/s0001","commit":"`+string(first.Hash)+`"}`), jsonReader},
		{"a JSON log record", "", pack(journal, `{"root":"session/s0001","log":[],"stamp":99}`), jsonReader},
		{"a JSON leaf", "", pack(journal, `{"k":"leaf","d":{"t":1,"v":[1]}}`), jsonReader},
		{"a JSON chunk with no kind", "", pack(journal, `{}`), jsonReader},
	} {
		fixture := row.fixture
		if fixture == "" {
			fixture = formatFixtureV8
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
