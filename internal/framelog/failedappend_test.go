package framelog_test

import (
	"flag"
	"os"
	"os/signal"
	"path/filepath"
	"reflect"
	"syscall"
	"testing"

	"github.com/reliable-cda/cda/internal/dialogue"
	"github.com/reliable-cda/cda/internal/framelog"
	"github.com/reliable-cda/cda/internal/sessionstore"
	"github.com/reliable-cda/cda/internal/vstore"
)

// failNextWrite makes the next write that grows file fail after a few
// bytes of it reached the disk — a full disk, in miniature — by capping
// the process's file size just past the file's current end for the
// duration of op. The kernel performs the short write and then refuses
// the rest with EFBIG, which is the failure a real log sees.
func failNextWrite(t *testing.T, file string, op func()) {
	t.Helper()
	info, err := os.Stat(file)
	if err != nil {
		t.Fatal(err)
	}
	capFileSize(t, uint64(info.Size())+5, op)
}

// drainTestLog empties the buffer `go test` logs this process's file
// opens and stats through (a 4 KiB bufio.Writer over -test.testlogfile,
// the record a cached result is checked against). The cap below applies
// to that file too, so a buffer that happened to fill while op opens a
// file would fail the run from outside the test. Each Stat here logs one
// line; the file grows when the buffer has just been flushed.
func drainTestLog(t *testing.T) {
	t.Helper()
	f := flag.Lookup("test.testlogfile")
	if f == nil || f.Value.String() == "" {
		return
	}
	size := func() int64 {
		info, err := os.Stat(f.Value.String())
		if err != nil {
			t.Fatal(err)
		}
		return info.Size()
	}
	for start := size(); size() == start; {
	}
}

// capFileSize runs op with no file of the process allowed past limit.
func capFileSize(t *testing.T, limit uint64, op func()) {
	t.Helper()
	drainTestLog(t)
	signal.Ignore(syscall.SIGXFSZ)
	defer signal.Reset(syscall.SIGXFSZ)
	var old syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
		t.Fatal(err)
	}
	capped := old
	capped.Cur = limit
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &capped); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
			t.Fatal(err)
		}
	}()
	op()
}

// The failed-append rule, at its one site and through both stores that
// rely on it: an append that fails part-way must not leave its partial
// frame in the file, or the next Open stops there and truncates every
// later, acknowledged record behind it.

func TestFailedAppendDoesNotPoisonLog(t *testing.T) {
	for name, add := range map[string]func(*framelog.Log, ...[]byte) error{
		"Append": (*framelog.Log).Append,
		"Write":  (*framelog.Log).Write,
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "log")
			l, _ := openCollect(t, path, framelog.Options{})
			if err := add(l, frame("first")); err != nil {
				t.Fatal(err)
			}
			size, synced := l.Size(), l.Synced()
			var failed error
			failNextWrite(t, path, func() { failed = add(l, frame("lost to a full disk")) })
			if failed == nil {
				t.Fatal("append past the file size cap succeeded")
			}
			if l.Dead() {
				t.Fatalf("log went dead although the rollback could succeed: %v", failed)
			}
			if l.Size() != size || l.Synced() != synced {
				t.Fatalf("the failed append moved the log to %d flushed of %d; want %d of %d", l.Synced(), l.Size(), synced, size)
			}
			if err := add(l, frame("second")); err != nil {
				t.Fatal(err)
			}
			_, got := openCollect(t, path, framelog.Options{})
			wantPayloads(t, got, "first", "second")
		})
	}
}

func TestFailedAppendDoesNotPoisonWAL(t *testing.T) {
	dir := t.TempDir()
	cfg := sessionstore.Config{Dir: dir, Shards: 1}
	st, err := sessionstore.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e, err := st.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	commit := func(q string) error {
		return e.Do(func(sess *dialogue.Session) error {
			sess.CommitTurn(q, dialogue.IntentQuery, "answer to "+q, 0.5)
			return st.CommitTurn(e)
		})
	}
	var failed error
	failNextWrite(t, filepath.Join(dir, "shard-00.wal"), func() { failed = commit("lost to a full disk") })
	if failed == nil {
		t.Fatal("commit past the file size cap succeeded")
	}
	if err := commit("acknowledged"); err != nil {
		t.Fatal(err)
	}
	want, _ := e.Turns(0, 100)

	// Reopen without Close, as after a kill: Close would compact the
	// WAL away and hide what is in it.
	st2, err := sessionstore.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e2, status := st2.Get(e.ID)
	if status != sessionstore.Found {
		t.Fatalf("session lost: status %v", status)
	}
	got, _ := e2.Turns(0, 100)
	if !reflect.DeepEqual(got, want) || len(got) == 0 {
		t.Fatalf("acknowledged turn lost behind a failed append:\n got: %+v\nwant: %+v", got, want)
	}
}

// TestFailedAppendDoesNotPoisonPack: a shipped chunk that a full disk
// keeps out of the journal leaves it whole, and the next one is
// acknowledged and survives reopen.
func TestFailedAppendDoesNotPoisonPack(t *testing.T) {
	dir := t.TempDir()
	s, err := vstore.Open(vstore.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	// ship adds one chunk, as a peer ships it, and returns its address.
	src := vstore.NewMemory()
	ship := func(v string) (vstore.Hash, error) {
		b := src.NewBatch(nil)
		tree, err := b.Put("db", nil, []byte(`{"v":"`+v+`"}`))
		if err == nil {
			_, err = b.Commit("db/main", tree, 0)
		}
		var p vstore.Packet
		if err == nil {
			p, err = src.PacketOf(tree)
		}
		if err != nil {
			t.Fatal(err)
		}
		return tree, s.AddPackets([]vstore.Packet{p})
	}
	if _, err := ship("first"); err != nil {
		t.Fatal(err)
	}
	var failed error
	failNextWrite(t, filepath.Join(dir, "chunks.pack"), func() { _, failed = ship("lost to a full disk") })
	if failed == nil {
		t.Fatal("a chunk shipped past the file size cap was installed")
	}
	acked, err := ship("second")
	if err != nil {
		t.Fatal(err)
	}
	r, err := vstore.Open(vstore.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Has(acked) {
		t.Fatal("acknowledged chunk lost behind a failed append")
	}
}

// TestFailedAppendLeavesBatchUncommitted cuts a whole version batch —
// chunks, commit, root record in one append — short on a full disk: the
// store's index, root logs and stamp sequence are what they were, and
// the next commit succeeds, continues the sequence and survives reopen.
// The flushed and the unflushed commit fail the same way.
func TestFailedAppendLeavesBatchUncommitted(t *testing.T) {
	for name, land := range map[string]func(*vstore.Batch, string, vstore.Hash, int) (vstore.Commit, error){
		"Commit":         (*vstore.Batch).Commit,
		"CommitUnsynced": (*vstore.Batch).CommitUnsynced,
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := vstore.Open(vstore.Config{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			commit := func(v string, turn int) (vstore.Commit, error) {
				b := s.NewBatch(nil)
				leaf, err := b.Put("leaf", nil, []byte(`"`+v+`"`))
				if err != nil {
					return vstore.Commit{}, err
				}
				tree, err := b.Put("db", []vstore.Hash{leaf}, nil)
				if err != nil {
					return vstore.Commit{}, err
				}
				return land(b, "db/main", tree, turn)
			}
			first, err := commit("first", 0)
			if err != nil {
				t.Fatal(err)
			}
			chunks := s.NumChunks()
			flushed, size := s.JournalSynced()
			var failed error
			failNextWrite(t, filepath.Join(dir, "chunks.pack"), func() { _, failed = commit("lost to a full disk", 1) })
			if failed == nil {
				t.Fatal("commit past the file size cap succeeded")
			}
			if log, err := s.Log("db/main"); err != nil || len(log) != 1 || log[0] != first {
				t.Fatalf("root log after the failed commit = %+v, %v; want only the first commit", log, err)
			}
			if s.NumChunks() != chunks {
				t.Fatalf("index has %d chunks after the failed commit, had %d", s.NumChunks(), chunks)
			}
			if f, n := s.JournalSynced(); f != flushed || n != size {
				t.Fatalf("journal after the failed commit is flushed to %d of %d bytes, was %d of %d", f, n, flushed, size)
			}
			acked, err := commit("second", 1)
			if err != nil {
				t.Fatal(err)
			}
			if acked.Stamp != first.Stamp+1 || acked.Parent != first.Hash {
				t.Fatalf("commit after the failure = %+v; want stamp %d on parent %s", acked, first.Stamp+1, first.Hash)
			}
			r, err := vstore.Open(vstore.Config{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			head, err := r.Head("db/main")
			if err != nil || head != acked || !r.HasClosure(head.Hash) {
				t.Fatalf("head after reopen = %+v, %v; want the acknowledged commit with its whole tree", head, err)
			}
			if r.NumChunks() != s.NumChunks() {
				t.Fatalf("reopened with %d chunks, store holds %d", r.NumChunks(), s.NumChunks())
			}
		})
	}
}
