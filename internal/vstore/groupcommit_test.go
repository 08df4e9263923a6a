package vstore

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// heldFsync is a fault hook whose journal fsyncs, once armed, signal
// held and wait for release, then succeed, or fail with fail.
type heldFsync struct {
	armed   atomic.Bool
	held    chan struct{}
	release chan struct{}
	fail    error
	fsyncs  atomic.Int32 // armed fsyncs run
}

func newHeldFsync(fail error) *heldFsync {
	// held is buffered past every fsync a test holds, so a leader that
	// signals it never waits for a test that is not receiving.
	return &heldFsync{held: make(chan struct{}, 16), release: make(chan struct{}), fail: fail}
}

func (h *heldFsync) Inject(string) error { return nil }

func (h *heldFsync) TornWrite(_ string, b []byte) ([]byte, bool) { return b, false }

func (h *heldFsync) Fsync(string) error {
	if !h.armed.Load() {
		return nil
	}
	h.fsyncs.Add(1)
	h.held <- struct{}{}
	<-h.release
	return h.fail
}

// commitLeaf lands a version of root pinning a fresh chunk at turn, of
// a kind whose data the store does not read, so a peer may ship it.
func commitLeaf(s *Store, root string, turn int) (Commit, error) {
	b := s.NewBatch(nil)
	tree, err := b.Put("note", nil, []byte(fmt.Sprintf("%s at %d", root, turn)))
	if err != nil {
		return Commit{}, err
	}
	return b.Commit(root, tree, turn)
}

// TestReadsDoNotWaitForAJournalFsync holds a version's fsync and reads
// the store meanwhile: every read completes, and none returns the held
// version — not Head, not AsOf, not Log, not its tree. A writer to
// another root appends behind the held one without waiting for it, the
// released fsync covers both, and only then are both versions read; a
// write that frames nothing waits for the writes before it all the same.
func TestReadsDoNotWaitForAJournalFsync(t *testing.T) {
	h := newHeldFsync(nil)
	s, err := Open(Config{Dir: t.TempDir(), Faults: h})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	v1, err := commitLeaf(s, "session/a", 2)
	if err != nil {
		t.Fatal(err)
	}
	h.armed.Store(true)
	var wg sync.WaitGroup
	commits := make([]Commit, 2)
	errs := make([]error, 2)
	wg.Add(1)
	go func() {
		defer wg.Done()
		commits[0], errs[0] = commitLeaf(s, "session/a", 4)
	}()
	<-h.held // the first writer leads an fsync, and holds it

	if head, err := s.Head("session/a"); err != nil || head != v1 {
		t.Errorf("Head during the held fsync = %+v, %v; want the flushed %+v", head, err, v1)
	}
	if c, err := s.AsOf("session/a", 4); err != nil || c != v1 {
		t.Errorf("AsOf(4) during the held fsync = %+v, %v; want the flushed %+v", c, err, v1)
	}
	if log, err := s.Log("session/a"); err != nil || len(log) != 1 {
		t.Errorf("Log during the held fsync = %+v, %v; want the one flushed version", log, err)
	}
	if _, data, err := s.Data(v1.Tree); err != nil || string(data) != "session/a at 2" {
		t.Errorf("a chunk read during the held fsync = %q, %v", data, err)
	}
	_, payload, err := encodeChunk("note", nil, []byte("session/a at 4"))
	if err != nil {
		t.Fatal(err)
	}
	unflushed := hashBytes(payload)
	if s.Has(unflushed) {
		t.Error("the held version's tree is in the store before its fsync")
	}
	if _, _, err := s.Data(unflushed); !errors.Is(err, ErrUnknownChunk) {
		t.Errorf("reading the held version's tree = %v, want ErrUnknownChunk", err)
	}
	// A second writer appends while the fsync is held, and waits for the
	// one that covers it; a third ships the held version's tree, which it
	// need not frame again, and still returns only once that tree is in
	// the store.
	wg.Add(2)
	go func() {
		defer wg.Done()
		commits[1], errs[1] = commitLeaf(s, "session/b", 2)
	}()
	var shippedHeld bool
	var shipErr error
	var shipped atomic.Bool
	go func() {
		defer wg.Done()
		shipErr = s.AddPackets([]Packet{{Hash: unflushed, Data: payload}})
		shippedHeld = s.Has(unflushed)
		shipped.Store(true)
	}()
	for s.writesInFlight() != 3 && !shipped.Load() {
		runtime.Gosched()
	}
	close(h.release)
	wg.Wait()
	for i, err := range append(errs, shipErr) {
		if err != nil {
			t.Fatalf("writer %d: %v", i, err)
		}
	}
	if !shippedHeld {
		t.Error("AddPackets of a chunk in flight returned before the chunk was in the store")
	}
	if n := h.fsyncs.Load(); n != 1 {
		t.Errorf("two writers appending under one held fsync took %d fsyncs, want the one", n)
	}
	for i, root := range []string{"session/a", "session/b"} {
		if head, err := s.Head(root); err != nil || head != commits[i] {
			t.Errorf("Head(%s) after the fsync = %+v, %v; want %+v", root, head, err, commits[i])
		}
	}
	if synced, size := s.JournalSynced(); synced != size {
		t.Errorf("journal flushed to %d of %d bytes after every writer returned", synced, size)
	}
}

// writesInFlight counts the journal writes appended and not yet
// installed.
func (s *Store) writesInFlight() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.queue)
}

// TestFailedJournalFsyncFailsEveryWriter: an fsync that fails fails every
// writer whose append it covered, installs none of their versions, and
// kills the journal — every later commit fails — until the store is
// reopened; the reopened store holds each failed version or not, its
// bytes having reached the file, and every version acknowledged before.
func TestFailedJournalFsyncFailsEveryWriter(t *testing.T) {
	dir := t.TempDir()
	h := newHeldFsync(errors.New("the disk is gone"))
	s, err := Open(Config{Dir: dir, Faults: h})
	if err != nil {
		t.Fatal(err)
	}
	v1, err := commitLeaf(s, "session/a", 2)
	if err != nil {
		t.Fatal(err)
	}
	h.armed.Store(true)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i, root := range []string{"session/a", "session/b"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = commitLeaf(s, root, 4)
		}()
		if i == 0 {
			<-h.held
		}
	}
	for s.writesInFlight() != 2 {
		runtime.Gosched()
	}
	close(h.release)
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, h.fail) {
			t.Errorf("writer %d = %v, want the failed fsync's error", i, err)
		}
	}
	if head, err := s.Head("session/a"); err != nil || head != v1 {
		t.Errorf("Head(session/a) after the failed fsync = %+v, %v; want %+v", head, err, v1)
	}
	if _, err := s.Head("session/b"); !errors.Is(err, ErrUnknownRoot) {
		t.Errorf("Head(session/b) after the failed fsync = %v, want ErrUnknownRoot", err)
	}
	h.armed.Store(false)
	if _, err := commitLeaf(s, "session/c", 2); !errors.Is(err, h.fail) {
		t.Errorf("a commit on the dead journal = %v, want the failed fsync's error", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if log, err := r.Log("session/a"); err != nil || log[0] != v1 {
		t.Errorf("reopened log of session/a = %+v, %v; want it to begin with %+v", log, err, v1)
	}
	if _, err := r.Head("session/c"); !errors.Is(err, ErrUnknownRoot) {
		t.Errorf("the refused commit on the dead journal reopened: %v", err)
	}
}
