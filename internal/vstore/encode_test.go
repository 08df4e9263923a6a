package vstore

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"github.com/reliable-cda/cda/internal/storage"
)

// encodeProcWidths are the GOMAXPROCS values the commit sweep runs: 1
// encodes inline, the others in that many spans of the leaf order.
var encodeProcWidths = []int{1, 2, 4, 8}

// setProcs sets GOMAXPROCS for the rest of the test and restores the
// value it found when the test ends.
func setProcs(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// sweepOrdersDB is an uploaded orders table at the benchmark's 60 000
// rows — 1 175 leaves, far past encodeSpanMin — with a second FLOAT
// column so that two columns can hold a value with no JSON form.
func sweepOrdersDB() *storage.Database {
	r := rand.New(rand.NewSource(1))
	regions := []string{"north", "south", "east", "west", "central", "alpine", "lakeside", "border"}
	tab := storage.NewTable("orders", storage.Schema{
		{Name: "order_id", Kind: storage.KindInt},
		{Name: "customer", Kind: storage.KindString},
		{Name: "region", Kind: storage.KindString},
		{Name: "amount", Kind: storage.KindFloat},
		{Name: "discount", Kind: storage.KindFloat},
	})
	for i := 0; i < 60000; i++ {
		discount := storage.Float(float64(r.Intn(30)) / 100)
		if i%97 == 0 {
			discount = storage.Null()
		}
		tab.MustAppendRow(storage.Int(int64(i+1)), storage.Str(fmt.Sprintf("c%04d", r.Intn(4000))),
			storage.Str(regions[r.Intn(len(regions))]), storage.Float(float64(100+r.Intn(99900))/100), discount)
	}
	db := storage.NewDatabase("shop")
	db.Put(tab)
	return db
}

// failingPut fails the at-th "vstore.put" consult and counts them all.
type failingPut struct{ at, seen int }

func (f *failingPut) Inject(op string) error {
	if op != "vstore.put" {
		return nil
	}
	if f.seen++; f.seen == f.at {
		return fmt.Errorf("injected put %d", f.seen)
	}
	return nil
}

// TestEncodeWidthSweep commits the orders table at every width and
// requires what a serial encode leaves: the same commit and table
// chunk, the same journal to the byte, the same first error when two
// columns hold a NaN, and the same fault-schedule positions.
func TestEncodeWidthSweep(t *testing.T) {
	db := sweepOrdersDB()
	tab, err := db.Get("orders")
	if err != nil {
		t.Fatal(err)
	}
	var wantCommit Commit
	var wantJournal []byte
	for _, procs := range encodeProcWidths {
		setProcs(t, procs)
		dir := t.TempDir()
		s, err := Open(Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		c, err := s.CommitDatabase("data", db, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		journal, err := os.ReadFile(filepath.Join(dir, packName))
		if err != nil {
			t.Fatal(err)
		}
		if procs == 1 {
			wantCommit, wantJournal = c, journal
		} else if c != wantCommit || !bytes.Equal(journal, wantJournal) {
			t.Errorf("GOMAXPROCS %d: commit %+v and a %d-byte journal, want %+v and %d bytes", procs, c, len(journal), wantCommit, len(wantJournal))
		}
	}

	// A put that fails, and then a leaf that cannot be encoded, stop the
	// encode at the same leaf whatever the width: the error is the same,
	// and so is the number of puts consulted and kept before it.
	const failAt = 700
	for _, procs := range encodeProcWidths {
		setProcs(t, procs)
		hook := &failingPut{at: failAt}
		s, err := Open(Config{Faults: hook})
		if err != nil {
			t.Fatal(err)
		}
		b := s.NewBatch(nil)
		if _, err := encodeTable(b, tab); fmt.Sprint(err) != fmt.Sprint("injected put ", failAt) || hook.seen != failAt || len(b.staged) != failAt-1 {
			t.Errorf("GOMAXPROCS %d: %v after %d puts, %d chunks staged; want put %d to fail", procs, err, hook.seen, len(b.staged), failAt)
		}
	}
	for _, cell := range [][2]int{{10000, 4}, {30000, 3}} {
		if err := tab.Set(cell[0], cell[1], storage.Float(math.NaN())); err != nil {
			t.Fatal(err)
		}
	}
	const want = "vstore: encode leaf orders[3][29952:30208]: json: unsupported value: NaN"
	for _, procs := range encodeProcWidths {
		setProcs(t, procs)
		hook := &failingPut{}
		s, err := Open(Config{Faults: hook})
		if err != nil {
			t.Fatal(err)
		}
		b := s.NewBatch(nil)
		_, err = encodeTable(b, tab)
		if leaves := 3*235 + 117; fmt.Sprint(err) != want || hook.seen != leaves || len(b.staged) != leaves {
			t.Errorf("GOMAXPROCS %d: %v after %d puts, %d chunks staged; want %s after %d", procs, err, hook.seen, len(b.staged), want, leaves)
		}
		if _, err := s.CommitDatabase("data", db, 0); !strings.Contains(fmt.Sprint(err), want) {
			t.Errorf("GOMAXPROCS %d: CommitDatabase = %v, want %s", procs, err, want)
		}
	}
}

// TestNonFiniteCSVCommits: a CSV cell reading NaN once loaded as a
// FLOAT the encoder cannot write, so a node serving the file failed its
// first commit and never started. The column now loads as TEXT, and
// the table commits and reads back.
func TestNonFiniteCSVCommits(t *testing.T) {
	tab, err := storage.ReadCSV("t", strings.NewReader("a,b\n1,2.5\n2,NaN\n"), nil)
	if err != nil {
		t.Fatal(err)
	}
	db := storage.NewDatabase("served")
	db.Put(tab)
	s := NewMemory()
	c, err := s.CommitDatabase("data", db, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.MaterializeDatabase(c.Tree)
	if err != nil {
		t.Fatal(err)
	}
	requireSameDB(t, got, db)
}
