package framelog

import (
	"path/filepath"
	"testing"
)

// TestFailedSyncKillsLog: a flush that fails is fatal. The kernel may
// have dropped the pages it could not write, so the frames appended
// since the last fsync can no longer be promised and the log says so on
// every append, and every Sync past the flushed prefix, from then on.
func TestFailedSyncKillsLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	accept := func(_, _ []byte) bool { return true }
	l, err := Open(path, 0xA7, Options{}, accept)
	if err != nil {
		t.Fatal(err)
	}
	end, err := l.Append(Encode(0xA7, []byte("written, never flushed")))
	if err != nil {
		t.Fatal(err)
	}
	written, flushed := l.Size(), l.Synced()
	if err := l.f.Close(); err != nil { // every fsync on the handle now fails
		t.Fatal(err)
	}
	failed := l.Sync(end)
	if failed == nil || !l.Dead() {
		t.Fatalf("Sync on a closed handle = %v, dead = %v; want an error and a dead log", failed, l.Dead())
	}
	if l.Size() != written || l.Synced() != flushed {
		t.Fatalf("the failed flush moved the log to %d flushed of %d; want %d of %d", l.Synced(), l.Size(), flushed, written)
	}
	_, appendErr := l.Append(Encode(0xA7, []byte("x")))
	for name, err := range map[string]error{
		"Sync":   l.Sync(end),
		"Append": appendErr,
	} {
		if err == nil || err.Error() != failed.Error() {
			t.Errorf("%s on the dead log = %v, want %v", name, err, failed)
		}
	}
	// Reopened, the file has what the kernel kept: here, everything.
	n := 0
	r, err := Open(path, 0xA7, Options{}, func(_, _ []byte) bool { n++; return true })
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := r.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	if n != 1 || r.Dead() || r.Synced() != r.Size() {
		t.Fatalf("reopened with %d frames, dead = %v, flushed to %d of %d", n, r.Dead(), r.Synced(), r.Size())
	}
}
