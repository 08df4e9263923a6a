package sessionstore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/reliable-cda/cda/internal/framelog"
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

// TestRefusedOpenClosesEveryFile: an Open refused at its second shard
// — a WAL with a gap — leaves no descriptor open, the first shard's WAL
// and the version store's journal included.
func TestRefusedOpenClosesEveryFile(t *testing.T) {
	if _, err := os.ReadDir("/proc/self/fd"); err != nil {
		t.Skipf("no /proc/self/fd to count descriptors in: %v", err)
	}
	dir := copyFixture(t, formatFixtureV7)
	path := filepath.Join(dir, "shard-01.wal")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	payloads, _ := framelog.Scan(walMagic, raw)
	if len(payloads) < 2 {
		t.Fatalf("shard-01.wal holds %d records, want 2 or more to cut a gap into", len(payloads))
	}
	// Without its first record, the WAL's second follows a cursor one short.
	if err := os.WriteFile(path, raw[framelog.HeaderSize+len(payloads[0]):], 0o644); err != nil {
		t.Fatal(err)
	}
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
	if st, err := Open(Config{Dir: dir, Shards: 2, SnapshotEvery: 8}); err == nil {
		kill(t, st)
		t.Fatal("Open took a WAL that skips a ship sequence")
	}
	if after := openFDs(); after > before {
		t.Errorf("a refused Open left %d descriptors open, had %d", after, before)
	}
}
