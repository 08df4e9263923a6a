package vstore

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/reliable-cda/cda/internal/framelog"
)

// lastForm reads the journal under dir and returns the tree form of its
// last frame, which must be a commit record.
func lastForm(t *testing.T, dir string) byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, packName))
	if err != nil {
		t.Fatal(err)
	}
	payloads, _ := framelog.Scan(packMagic, raw)
	last := payloads[len(payloads)-1]
	if last[0] != tagCommit {
		t.Fatalf("the journal ends in a payload tagged %#x, want a commit record", last[0])
	}
	_, _, tree, err := cutCommitHead(last)
	if err != nil {
		t.Fatal(err)
	}
	return tree[0]
}

// requireCopyReopens opens a copy of the journal under dir, as a kill
// would leave it, and requires every root log of s, commit for commit,
// its events in their order, and the chunks s indexes, each reading back as its address.
func requireCopyReopens(t *testing.T, dir string, s *Store) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, packName))
	if err != nil {
		t.Fatal(err)
	}
	cp := t.TempDir()
	if err := os.WriteFile(filepath.Join(cp, packName), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(Config{Dir: cp})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer func() {
		if err := r.Close(); err != nil {
			t.Errorf("close reopened: %v", err)
		}
	}()
	if got, want := allLogs(t, r), allLogs(t, s); !reflect.DeepEqual(got, want) {
		t.Fatalf("root logs after reopen:\n got: %+v\nwant: %+v", got, want)
	}
	if got, want := r.Events(), s.Events(); !reflect.DeepEqual(got, want) {
		t.Fatalf("events after reopen:\n got: %+v\nwant: %+v", got, want)
	}
	if r.NumChunks() != s.NumChunks() {
		t.Fatalf("reopened with %d chunks, store holds %d", r.NumChunks(), s.NumChunks())
	}
	requirePacketsRehash(t, s)
	requirePacketsRehash(t, r)
}

// TestReopenGivesBackEveryCommit runs a script of every way a root log
// changes, and a mark, and reopens a copy of the directory after each
// step: the reopened store lists every commit of every root as the live
// one does — hash, tree, parent, turn and stamp, none of which a commit
// record spells but the tree — and every event in order, and indexes the
// same chunks, each readable.
func TestReopenGivesBackEveryCommit(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	src := NewMemory()
	// sessTree stages a turns chunk and a session node over it.
	sessTree := func(b *Batch, v byte) Hash {
		t.Helper()
		turns, err := b.Put("turns", nil, []byte{v, v})
		if err != nil {
			t.Fatal(err)
		}
		tree, err := b.Put("sess", []Hash{turns}, []byte{v})
		if err != nil {
			t.Fatal(err)
		}
		return tree
	}
	commit := func(root string, v byte, turn int, land func(*Batch, string, Hash, int) (Commit, error)) Commit {
		t.Helper()
		b := s.NewBatch(nil)
		c, err := land(b, root, sessTree(b, v), turn)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	const none = 0xFF // a step that writes no commit record
	var first Commit
	for _, step := range []struct {
		name string
		do   func()
		form byte
	}{
		{"a data root", func() {
			if _, err := s.CommitDatabase("db/main", demoDB(300), 0); err != nil {
				t.Fatal(err)
			}
		}, treeInline},
		{"a fresh tree", func() { first = commit("session/a", 1, 2, (*Batch).Commit) }, treeInline},
		{"a fresh tree on a parent, with a mark", func() {
			b := s.NewBatch(nil)
			b.Mark("session/b")
			b.Version("session/a", sessTree(b, 2), 4)
			if err := b.Land(); err != nil {
				t.Fatal(err)
			}
		}, treeInline},
		{"a stored tree", func() {
			if _, err := s.NewBatch(nil).Commit("session/a", first.Tree, 6); err != nil {
				t.Fatal(err)
			}
		}, treeStored},
		{"a staged tree the store holds", func() { commit("session/b", 1, 2, (*Batch).Commit) }, treeStored},
		{"a tree no record carries", func() {
			b := s.NewBatch(nil)
			tree, err := b.Put("db", nil, []byte(`[`)) // db data its decoder refuses
			if err != nil {
				t.Fatal(err)
			}
			if _, err := b.Commit("db/other", tree, 1); err != nil {
				t.Fatal(err)
			}
		}, treeStored},
		{"a commit shipped from a second store, adopted", func() {
			b := src.NewBatch(nil)
			c, err := b.Commit("shard/00", sessTree(b, 9), 8)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := pullFrom(src, s, c.Hash, 4); err != nil {
				t.Fatal(err)
			}
			if _, err := adoptCommit(s, "shard/00", c.Hash); err != nil {
				t.Fatal(err)
			}
		}, none},
		{"a commit on the adopted one", func() { commit("shard/00", 4, 12, (*Batch).Commit) }, treeInline},
	} {
		step.do()
		if step.form != none {
			if got := lastForm(t, dir); got != step.form {
				t.Fatalf("%s: the commit record's tree is in form %d, want %d", step.name, got, step.form)
			}
		}
		t.Run(step.name, func(t *testing.T) { requireCopyReopens(t, dir, s) })
	}
}

// adoptCommit lands a batch that adopts commit chunk h into root's log,
// and returns the root's newest commit.
func adoptCommit(s *Store, root string, h Hash) (Commit, error) {
	b := s.NewBatch(nil)
	b.Adopt(root, h)
	if err := b.Land(); err != nil {
		return Commit{}, err
	}
	return s.Head(root)
}
