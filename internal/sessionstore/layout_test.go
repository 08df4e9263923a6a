package sessionstore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestOpenRefusesAnotherShardCount: a directory written under 8 shards
// and opened under 4, or the other way round, is ErrShardCount naming
// both counts — whether its sessions are in shard roots (a clean Close)
// or only in WAL records (a kill) — and the refusal changes no byte in
// it, so reopening under the count that wrote it serves every session.
func TestOpenRefusesAnotherShardCount(t *testing.T) {
	for _, counts := range [][2]int{{8, 4}, {4, 8}} {
		written, opened := counts[0], counts[1]
		for _, closed := range []bool{true, false} {
			t.Run(fmt.Sprintf("%d_to_%d_closed=%t", written, opened, closed), func(t *testing.T) {
				dir := t.TempDir()
				st, err := Open(Config{Dir: dir, Shards: written})
				if err != nil {
					t.Fatal(err)
				}
				transcripts := map[string]string{}
				for i := range 32 {
					e, err := st.NewSession()
					if err != nil {
						t.Fatal(err)
					}
					commitPair(t, st, e, fmt.Sprintf("how many rows in table %d", i), "answer", 0.5)
					transcripts[e.ID] = transcriptOf(t, e)
				}
				if closed {
					err = st.Close()
				} else {
					kill(t, st)
				}
				if err != nil {
					t.Fatal(err)
				}
				before := readTree(t, dir)

				refused, err := Open(Config{Dir: dir, Shards: opened})
				if err == nil {
					kill(t, refused)
					t.Fatalf("a directory written under %d shards opened under %d", written, opened)
				}
				msg := err.Error()
				if !errors.Is(err, ErrShardCount) || !strings.Contains(msg, fmt.Sprintf("written under %d shards", written)) ||
					!strings.Contains(msg, fmt.Sprint(opened)) {
					t.Fatalf("Open under %d shards = %v, want ErrShardCount naming %d and %d", opened, err, written, opened)
				}
				after := readTree(t, dir)
				for name, data := range before {
					if !bytes.Equal(after[name], data) {
						t.Errorf("the refused Open changed %s", name)
					}
				}
				if len(after) != len(before) {
					t.Errorf("the refused Open left %d files, there were %d", len(after), len(before))
				}

				st, err = Open(Config{Dir: dir, Shards: written})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() {
					if err := st.Close(); err != nil {
						t.Error(err)
					}
				})
				if st.Len() != len(transcripts) {
					t.Errorf("reopened store holds %d sessions, want %d", st.Len(), len(transcripts))
				}
				for id, want := range transcripts {
					e, status := st.Get(id)
					if status != Found {
						t.Fatalf("session %s: status %v after reopening under %d shards", id, status, written)
					}
					if got := transcriptOf(t, e); got != want {
						t.Errorf("session %s:\n got %q\nwant %q", id, got, want)
					}
				}
			})
		}
	}
}

// TestRefusedOpenClosesEveryFile: an Open refused once its version
// store is open — format-v8, written under two shards, opened under one,
// whose shard/01 root is beyond it — leaves no descriptor open, the
// journal's included.
func TestRefusedOpenClosesEveryFile(t *testing.T) {
	if _, err := os.ReadDir("/proc/self/fd"); err != nil {
		t.Skipf("no /proc/self/fd to count descriptors in: %v", err)
	}
	dir := copyFixture(t, formatFixtureV8)
	openFDs := func() int {
		fds, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Fatal(err)
		}
		return len(fds)
	}
	// Only a rise counts: a file an earlier test dropped may be closed
	// by its finalizer meanwhile.
	before := openFDs()
	if st, err := Open(Config{Dir: dir, Shards: 1, SnapshotEvery: 8}); !errors.Is(err, ErrShardCount) {
		if err == nil {
			kill(t, st)
		}
		t.Fatalf("Open under one shard = %v, want ErrShardCount", err)
	}
	if after := openFDs(); after > before {
		t.Errorf("a refused Open left %d descriptors open, had %d", after, before)
	}
}
