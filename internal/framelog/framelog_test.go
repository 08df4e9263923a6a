package framelog_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/reliable-cda/cda/internal/framelog"
)

const testMagic = byte(0xC5)

// frames concatenates the encodings of payloads.
func frames(payloads ...string) []byte {
	var raw []byte
	for _, p := range payloads {
		raw = append(raw, frame(p)...)
	}
	return raw
}

func frame(payload string) []byte { return framelog.Encode(testMagic, []byte(payload)) }

// scanCases is the malformed-input corpus: what Scan must keep of each
// input. FuzzScan seeds from the same list.
func scanCases() []struct {
	name  string
	raw   []byte
	count int // complete frames
	valid int // trusted prefix length
} {
	one := frames("alpha")
	two := frames("alpha", "")
	badCRC := frames("alpha", "beta")
	badCRC[len(badCRC)-1] ^= 0xFF
	hugeLen := append(frames("alpha"), testMagic, 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0)
	return []struct {
		name  string
		raw   []byte
		count int
		valid int
	}{
		{"empty", nil, 0, 0},
		{"one frame", one, 1, len(one)},
		{"empty payload", two, 2, len(two)},
		{"partial header", append(frames("alpha"), testMagic, 3, 0), 1, len(one)},
		{"partial payload", two[:len(two)-framelog.HeaderSize-2], 0, 0},
		{"bad crc", badCRC, 1, len(one)},
		{"wrong magic", framelog.Encode(0xC6, []byte("alpha")), 0, 0},
		{"len 0xFFFFFFFF", hugeLen, 1, len(one)},
		{"valid prefix + garbage", append(frames("alpha", "beta"), "garbage!!!"...), 2, len(frames("alpha", "beta"))},
	}
}

func TestScanKeepsLongestValidPrefix(t *testing.T) {
	for _, tc := range scanCases() {
		payloads, valid := framelog.Scan(testMagic, tc.raw)
		if len(payloads) != tc.count || valid != tc.valid {
			t.Errorf("%s: Scan = %d frames, valid %d; want %d, %d", tc.name, len(payloads), valid, tc.count, tc.valid)
		}
	}
}

func TestScanAliasesInput(t *testing.T) {
	raw := frames("alpha", "beta")
	payloads, _ := framelog.Scan(testMagic, raw)
	if len(payloads) != 2 || &payloads[1][0] != &raw[len(raw)-len("beta")] {
		t.Fatalf("Scan copied its input instead of returning sub-slices")
	}
}

// FuzzScan covers the one decoder WAL records, pack chunks and shipped
// replication frames all go through: it never panics, never trusts
// more than it was given, and what it trusts re-encodes to the exact
// bytes it was read from.
func FuzzScan(f *testing.F) {
	for _, tc := range scanCases() {
		f.Add(tc.raw)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		payloads, valid := framelog.Scan(testMagic, raw)
		if valid > len(raw) {
			t.Fatalf("valid %d > len(raw) %d", valid, len(raw))
		}
		var again []byte
		for _, p := range payloads {
			again = append(again, framelog.Encode(testMagic, p)...)
		}
		if !bytes.Equal(again, raw[:valid]) {
			t.Fatalf("re-encoding %d payloads gives %x, want raw[:%d] = %x", len(payloads), again, valid, raw[:valid])
		}
	})
}

// openCollect opens the log at path and returns the payloads it held.
func openCollect(t *testing.T, path string, opts framelog.Options) (*framelog.Log, []string) {
	t.Helper()
	var got []string
	l, err := framelog.Open(path, testMagic, opts, func(frame, payload []byte) bool {
		if !bytes.Equal(frame, framelog.Encode(testMagic, payload)) {
			t.Errorf("frame %x is not the encoding of payload %q", frame, payload)
		}
		got = append(got, string(payload))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = l.Close() })
	return l, got
}

// appendSync appends frames and waits for the fsync that covers them.
func appendSync(l *framelog.Log, frames ...[]byte) error {
	end, err := l.Append(frames...)
	if err == nil {
		err = l.Sync(end)
	}
	return err
}

func wantPayloads(t *testing.T, got []string, want ...string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("log holds %q, want %q", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("log holds %q, want %q", got, want)
		}
	}
}

// TestOpenTruncatesTornTail: a crash mid-append leaves a partial
// frame; Open drops it physically, so the next append lands on a clean
// frame boundary and both survive the next Open.
func TestOpenTruncatesTornTail(t *testing.T) {
	for _, cut := range []int{1, 5, framelog.HeaderSize, framelog.HeaderSize + 3} {
		path := filepath.Join(t.TempDir(), "log")
		torn := frames("a", "b", "torn-record")
		if err := os.WriteFile(path, torn[:len(torn)-cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l, got := openCollect(t, path, framelog.Options{})
		wantPayloads(t, got, "a", "b")
		if info, err := os.Stat(path); err != nil || info.Size() != int64(len(frames("a", "b"))) {
			t.Fatalf("cut=%d: torn tail not truncated: size %d, err %v", cut, info.Size(), err)
		}
		if err := appendSync(l, frame("c"), frame("d")); err != nil {
			t.Fatal(err)
		}
		_, got = openCollect(t, path, framelog.Options{})
		wantPayloads(t, got, "a", "b", "c", "d")
	}
}

// TestOpenStopsAtRejectedFrame: a frame the owner cannot decode ends
// the trusted prefix exactly like a failed checksum.
func TestOpenStopsAtRejectedFrame(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	if err := os.WriteFile(path, frames("a", "bad", "c"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := framelog.Open(path, testMagic, framelog.Options{}, func(_, payload []byte) bool { return string(payload) != "bad" })
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, got := openCollect(t, path, framelog.Options{})
	wantPayloads(t, got, "a")
}

// tearAt is a Faults that tears the n-th append (1-based) in half.
type tearAt struct{ n, seen int }

func (f *tearAt) TornWrite(op string, b []byte) ([]byte, bool) {
	f.seen++
	if op != "test.append" || f.seen != f.n {
		return b, false
	}
	return b[:len(b)/2], true
}

// TestCrashFaultKillsLog: the injected crash persists the torn prefix,
// every later append, and every Sync past what was flushed, fails with
// ErrCrashed, and reopening recovers the acknowledged prefix.
func TestCrashFaultKillsLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, _ := openCollect(t, path, framelog.Options{Op: "test.append", Faults: &tearAt{n: 2}})
	if err := appendSync(l, frame("a")); err != nil {
		t.Fatal(err)
	}
	if err := appendSync(l, frame("torn")); !errors.Is(err, framelog.ErrCrashed) {
		t.Fatalf("torn append = %v, want ErrCrashed", err)
	}
	if info, err := os.Stat(path); err != nil || info.Size() <= int64(len(frames("a"))) {
		t.Fatalf("torn prefix not persisted: size %d, err %v", info.Size(), err)
	}
	if !l.Dead() {
		t.Fatal("log alive after a crash")
	}
	if err := appendSync(l, frame("b")); !errors.Is(err, framelog.ErrCrashed) {
		t.Fatalf("append after crash = %v, want ErrCrashed", err)
	}
	if _, err := l.Append(frame("b")); !errors.Is(err, framelog.ErrCrashed) {
		t.Fatalf("append after crash = %v, want ErrCrashed", err)
	}
	if err := l.Sync(l.Size() + 1); !errors.Is(err, framelog.ErrCrashed) {
		t.Fatalf("sync past the acknowledged end after crash = %v, want ErrCrashed", err)
	}
	if err := l.Sync(l.Size()); err != nil {
		t.Fatalf("sync of what was acknowledged before the crash = %v, want nil", err)
	}
	_, got := openCollect(t, path, framelog.Options{})
	wantPayloads(t, got, "a")
}

// TestReadFrame: a frame is served only from where one starts, with the
// length the caller indexed, below the acknowledged end, and intact —
// also on a log a crash has killed.
func TestReadFrame(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, _ := openCollect(t, path, framelog.Options{Op: "test.append", Faults: &tearAt{n: 2}})
	if l.Size() != 0 {
		t.Fatalf("empty log has size %d", l.Size())
	}
	if err := appendSync(l, frame("alpha"), frame("be"), frame("ta")); err != nil {
		t.Fatal(err)
	}
	second := int64(len(frame("alpha")))
	if l.Size() != int64(len(frames("alpha", "be", "ta"))) {
		t.Fatalf("size %d after three frames", l.Size())
	}
	read := func(off int64, n int) (string, error) {
		p, err := l.ReadFrame(testMagic, off, n)
		return string(p), err
	}
	if got, err := read(0, 5); err != nil || got != "alpha" {
		t.Fatalf("first frame = %q, %v", got, err)
	}
	if got, err := read(second, 2); err != nil || got != "be" {
		t.Fatalf("second frame = %q, %v", got, err)
	}
	refused := []struct {
		name string
		off  int64
		n    int
	}{
		{"length field says 5, index says 4", 0, 4},
		{"length field says 5, index says 6", 0, 6},
		// "be" and "ta" together are exactly as long as one 11-byte frame.
		{"two whole frames where one was indexed", second, 2 + framelog.HeaderSize + 2},
		{"not a frame boundary", 1, 5},
		{"ends past Size", l.Size() - 3, 5},
		{"starts at Size", l.Size(), 0},
		{"negative offset", -1, 5},
		{"negative length", 0, -1},
	}
	for _, tc := range refused {
		if got, err := read(tc.off, tc.n); err == nil {
			t.Errorf("%s: ReadFrame(%d, %d) = %q, want an error", tc.name, tc.off, tc.n, got)
		}
	}
	if _, err := l.ReadFrame(testMagic+1, 0, 5); err == nil {
		t.Error("frame served under the wrong magic")
	}

	// One flipped payload byte on disk: the checksum refuses the frame,
	// its neighbour still reads.
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("A"), framelog.HeaderSize); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if got, err := read(0, 5); err == nil {
		t.Fatalf("corrupt frame served as %q", got)
	}
	if got, err := read(second, 2); err != nil || got != "be" {
		t.Fatalf("neighbour of the corrupt frame = %q, %v", got, err)
	}

	// The second append is torn by a crash: the log is dead, its torn
	// bytes lie past Size and are refused, acknowledged frames still read.
	size := l.Size()
	if err := appendSync(l, frame("torn-by-the-crash")); !errors.Is(err, framelog.ErrCrashed) || !l.Dead() {
		t.Fatalf("torn append = %v, dead %v", err, l.Dead())
	}
	if l.Size() != size {
		t.Fatalf("size moved from %d to %d by an unacknowledged append", size, l.Size())
	}
	if got, err := read(second, 2); err != nil || got != "be" {
		t.Fatalf("acknowledged frame on a dead log = %q, %v", got, err)
	}
	if got, err := read(size, 2); err == nil {
		t.Fatalf("read past Size on a dead log = %q", got)
	}
}

// TestPublishReplacesAtomically: a failed write leaves the published
// file untouched; a successful one replaces it whole.
func TestPublishReplacesAtomically(t *testing.T) {
	path := filepath.Join(t.TempDir(), "doc.json")
	publish := func(data string, fail error) error {
		return framelog.Publish(path, func(w io.Writer) error {
			if _, err := io.WriteString(w, data); err != nil {
				return err
			}
			return fail
		})
	}
	if err := publish("v1", nil); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	if err := publish("v2-partial", boom); !errors.Is(err, boom) {
		t.Fatalf("failed publish = %v, want boom", err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "v1" {
		t.Fatalf("after failed publish: %q, %v; want v1", got, err)
	}
	if err := publish("v2", nil); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "v2" {
		t.Fatalf("after publish: %q, %v; want v2", got, err)
	}
}

// TestFailedPublishClosesItsFile: a write that fails leaves no
// descriptor open on the temp file, however often it fails.
func TestFailedPublishClosesItsFile(t *testing.T) {
	openFDs := func() int {
		fds, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("no /proc/self/fd to count descriptors in: %v", err)
		}
		return len(fds)
	}
	path := filepath.Join(t.TempDir(), "doc.json")
	boom := errors.New("boom")
	// Only a rise counts: a file an earlier test dropped may be closed
	// by its finalizer meanwhile.
	before := openFDs()
	for i := 0; i < 8; i++ {
		if err := framelog.Publish(path, func(io.Writer) error { return boom }); !errors.Is(err, boom) {
			t.Fatalf("failed publish = %v, want boom", err)
		}
	}
	if after := openFDs(); after > before {
		t.Errorf("eight failed publishes left %d descriptors open, had %d", after, before)
	}
}

// TestAppendIsUnflushedUntilSync: Append moves Size() and its frames are
// served by ReadFrame at once; only Sync moves Synced(), to the end of
// what was written when its fsync started.
func TestAppendIsUnflushedUntilSync(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, _ := openCollect(t, path, framelog.Options{})
	flushed := func(when string, want bool) {
		t.Helper()
		if got := l.Synced() == l.Size(); got != want || l.Synced() > l.Size() {
			t.Fatalf("%s: flushed to %d of %d bytes; want flushed = %v", when, l.Synced(), l.Size(), want)
		}
	}
	flushed("empty", true)
	first, err := l.Append(frame("a"))
	if err != nil {
		t.Fatal(err)
	}
	flushed("after Append", false)
	end, err := l.Append(frame("b"), frame("c"))
	if err != nil {
		t.Fatal(err)
	}
	if l.Synced() != 0 || l.Size() != end || end != int64(len(frames("a", "b", "c"))) {
		t.Fatalf("two Appends moved the log to %d flushed of %d, ending at %d; want 0 of %d", l.Synced(), l.Size(), end, len(frames("a", "b", "c")))
	}
	if got, err := l.ReadFrame(testMagic, int64(len(frames("a", "b"))), 1); err != nil || string(got) != "c" {
		t.Fatalf("ReadFrame of an unflushed frame = %q, %v", got, err)
	}
	// A process kill keeps the page cache: what was written is read back.
	_, got := openCollect(t, path, framelog.Options{})
	wantPayloads(t, got, "a", "b", "c")

	// One fsync covers every byte written before it started, so a Sync
	// of the earlier end flushes the later frames too.
	if err := l.Sync(first); err != nil {
		t.Fatal(err)
	}
	flushed("after Sync", true)
	if err := l.Sync(end); err != nil {
		t.Fatalf("Sync with nothing to flush: %v", err)
	}
	if _, err := l.Append(frame("d")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, got = openCollect(t, path, framelog.Options{})
	wantPayloads(t, got, "a", "b", "c", "d")
}

// heldFsync is a Faults whose fsyncs wait for release once armed: it
// counts them, and fails them when fail is set.
type heldFsync struct {
	release chan struct{}
	fail    error
	fsyncs  atomic.Int32
}

func (h *heldFsync) TornWrite(_ string, b []byte) ([]byte, bool) { return b, false }

func (h *heldFsync) Fsync(string) error {
	h.fsyncs.Add(1)
	<-h.release
	return h.fail
}

// appendAll runs n writers that each append one frame under lock, the
// owner's, and then Sync it without the lock; after every writer has
// appended it releases the held fsync, and it returns what each Sync said
// and the end each waited for.
func appendAll(t *testing.T, l *framelog.Log, h *heldFsync, n int) ([]error, []int64) {
	t.Helper()
	var lock sync.Mutex
	var appended, done sync.WaitGroup
	errs, ends := make([]error, n), make([]int64, n)
	appended.Add(n)
	done.Add(n)
	for i := range n {
		go func() {
			defer done.Done()
			lock.Lock()
			end, err := l.Append(frame(fmt.Sprintf("writer %d", i)))
			lock.Unlock()
			appended.Done()
			if err != nil {
				errs[i] = err
				return
			}
			ends[i] = end
			errs[i] = l.Sync(end)
			if errs[i] == nil && l.Synced() < end {
				errs[i] = fmt.Errorf("Sync(%d) returned with the log flushed to %d", end, l.Synced())
			}
		}()
	}
	appended.Wait()
	close(h.release)
	done.Wait()
	return errs, ends
}

// TestGroupCommitSharesFsyncs: writers that append while an fsync is
// held each return from Sync only once Synced() covers their bytes, and
// they share fsyncs: fewer run than there are writers.
func TestGroupCommitSharesFsyncs(t *testing.T) {
	const n = 8
	h := &heldFsync{release: make(chan struct{})}
	l, _ := openCollect(t, filepath.Join(t.TempDir(), "log"), framelog.Options{Op: "test.append", Faults: h})
	errs, _ := appendAll(t, l, h, n)
	for i, err := range errs {
		if err != nil {
			t.Errorf("writer %d: %v", i, err)
		}
	}
	if got := h.fsyncs.Load(); got < 1 || got >= n {
		t.Errorf("%d writers ran %d fsyncs, want at least 1 and fewer than %d", n, got, n)
	}
	if l.Synced() != l.Size() || l.Size() != int64(n*len(frame("writer 0"))) {
		t.Errorf("the log is flushed to %d of %d bytes after every Sync returned", l.Synced(), l.Size())
	}
}

// TestFailedGroupFsyncFailsEveryWriter: an fsync that fails fails every
// writer whose bytes it covered and kills the log: appends and Syncs past
// the flushed prefix fail with the same error until it is reopened.
func TestFailedGroupFsyncFailsEveryWriter(t *testing.T) {
	const n = 4
	h := &heldFsync{release: make(chan struct{}), fail: errors.New("the disk is gone")}
	l, _ := openCollect(t, filepath.Join(t.TempDir(), "log"), framelog.Options{Op: "test.append", Faults: h})
	errs, _ := appendAll(t, l, h, n)
	for i, err := range errs {
		if err == nil || !errors.Is(err, h.fail) {
			t.Errorf("writer %d: Sync = %v, want the failed fsync's error", i, err)
		}
	}
	if !l.Dead() || l.Synced() != 0 {
		t.Fatalf("after the failed fsync: dead = %v, flushed to %d", l.Dead(), l.Synced())
	}
	if _, err := l.Append(frame("after")); !errors.Is(err, h.fail) {
		t.Errorf("append on the dead log = %v, want the failed fsync's error", err)
	}
	if err := l.Sync(1); !errors.Is(err, h.fail) {
		t.Errorf("sync on the dead log = %v, want the failed fsync's error", err)
	}
}
