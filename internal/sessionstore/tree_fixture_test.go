package sessionstore

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/reliable-cda/cda/internal/dialogue"
	"github.com/reliable-cda/cda/internal/vstore"
)

// The session-tree pins. A session's tree is cut as a function of its
// turn count: sealed 32-turn chunks, then one chunk per pair of the open
// window. The format dialogue never leaves its first window, so
// testdata/tree-v7 is the data directory replayScript(treeScript()) writes
// — this file, compiled in a commit that wrote shard WALs beside the
// journal — whose long session has two sealed chunks and eight pair
// chunks after them, abandoned as a kill leaves it; testdata/format-v7 is
// the same for formatScript(). The -v8 directories are the same scripts
// closed by the last commit that wrote shard WALs, 0230b50: its Close
// compacted every shard and emptied the WALs. Each carries logs.json, the
// root logs its writer's store reported. The -v9 directories are the
// same scripts replayed by the last commit whose journal spelled every
// ref's 32-byte address, 9fe06c3, and left open, as a kill leaves them:
// a journal alone, its logs.json that commit's store's report. The -v6 directories are the same scripts
// as the commit before commit records wrote them: the same WALs, logs.json
// byte for byte, and a journal that spends a tree node frame, a commit
// chunk and an append record on each version, which Open reads as it is.
// The -v5 ones are older: a journal of JSON leaves, turns chunks and
// commit data, which Open refuses; the -v4 ones are older still, with
// WALs of JSON records.
const (
	treeFixtureV9   = "testdata/tree-v9"
	formatFixtureV9 = "testdata/format-v9"
	treeFixtureV8   = "testdata/tree-v8"
	formatFixtureV8 = "testdata/format-v8"
	treeFixtureV7   = "testdata/tree-v7"
	formatFixtureV7 = "testdata/format-v7"
	treeFixtureV6   = "testdata/tree-v6"
	formatFixtureV6 = "testdata/format-v6"
	treeFixtureV5   = "testdata/tree-v5"
	formatFixtureV5 = "testdata/format-v5"
	treeFixtureV4   = "testdata/tree-v4"
	formatFixtureV4 = "testdata/format-v4"
	fixtureLogs     = "logs.json"
)

// treeLongPairs is how many pairs the tree script's first session asks:
// 80 turns, two full windows and half of a third.
const treeLongPairs = 40

// treeScript is the three-session dialogue of the tree fixtures: the
// first session asks treeLongPairs times, the second three times and
// the third once, early on.
func treeScript() []formatTurn {
	pair := func(s, j int) formatTurn {
		return formatTurn{
			session: s,
			q:       fmt.Sprintf("how many vacancies in round %d", j),
			a:       fmt.Sprintf("%d in \"Zürich\" <s%d> & beyond", 7*j+s, s),
			conf:    float64(j%10) / 10,
		}
	}
	var script []formatTurn
	for j := 0; j < treeLongPairs; j++ {
		script = append(script, pair(0, j))
		if j < 3 {
			script = append(script, pair(1, j))
		}
		if j == 1 {
			script = append(script, pair(2, j))
		}
	}
	return script
}

// replayScript commits a three-session script into a fresh versioned
// store under dir, in the fixtures' configuration: two shards at a
// snapshot cadence of 8, so a shard compacts mid-dialogue and keeps
// appending afterwards. The stores are left open — Close would compact
// every shard — and closed at test cleanup.
func replayScript(t *testing.T, dir string, script []formatTurn) (*Store, *vstore.Store) {
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
	for _, turn := range script {
		commitPair(t, st, entries[turn.session], turn.q, turn.a, turn.conf)
	}
	return st, vs
}

// scriptTranscripts renders, from the script alone, the transcript each
// of its sessions must hold, by session id.
func scriptTranscripts(script []formatTurn) map[string]string {
	sessions := []*dialogue.Session{dialogue.NewSession(), dialogue.NewSession(), dialogue.NewSession()}
	for _, turn := range script {
		sessions[turn.session].CommitTurn(turn.q, dialogue.ClassifyIntent(turn.q), turn.a, turn.conf)
	}
	out := map[string]string{}
	for i, sess := range sessions {
		out[fmt.Sprintf("s%04d", i+1)] = Transcript(sess)
	}
	return out
}

// recordedLogs decodes a fixture's logs.json.
func recordedLogs(t *testing.T, fixture string) map[string][]vstore.Commit {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(fixture, fixtureLogs))
	if err != nil {
		t.Fatal(err)
	}
	var logs map[string][]vstore.Commit
	if err := json.Unmarshal(raw, &logs); err != nil {
		t.Fatal(err)
	}
	return logs
}
