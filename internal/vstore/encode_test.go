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
// column so that two columns can hold a value with no JSON form: each
// cell of nans, {row, column}, holds a NaN.
func sweepOrdersDB(nans ...[2]int) *storage.Database {
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
		row := []storage.Value{storage.Int(int64(i + 1)), storage.Str(fmt.Sprintf("c%04d", r.Intn(4000))),
			storage.Str(regions[r.Intn(len(regions))]), storage.Float(float64(100+r.Intn(99900)) / 100), discount}
		for _, cell := range nans {
			if cell[0] == i {
				row[cell[1]] = storage.Float(math.NaN())
			}
		}
		tab.MustAppendRow(row...)
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
	db = sweepOrdersDB([2]int{10000, 4}, [2]int{30000, 3})
	if tab, err = db.Get("orders"); err != nil {
		t.Fatal(err)
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
// the table commits with the column's leaf in TEXT.
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
	leaves := tableLeaves(t, s, c.Tree)
	if _, data, err := s.Data(leaves[1]); err != nil || string(data) != `{"t":3,"v":["2.5","NaN"]}` {
		t.Fatalf("column b's leaf is %s, %v", data, err)
	}
}

// TestEncodeDatabaseCanonicalOrder: a database's hash does not depend
// on the order its tables were registered in.
func TestEncodeDatabaseCanonicalOrder(t *testing.T) {
	s := NewMemory()
	mk := func(names ...string) *storage.Database {
		db := storage.NewDatabase("demo")
		for _, n := range names {
			tab := storage.NewTable(n, storage.Schema{{Name: "x", Kind: storage.KindInt}})
			tab.MustAppendRow(storage.Int(1))
			db.Put(tab)
		}
		return db
	}
	a, err := encodeDatabase(s.NewBatch(nil), mk("alpha", "beta"))
	if err != nil {
		t.Fatalf("encode a: %v", err)
	}
	b, err := encodeDatabase(s.NewBatch(nil), mk("beta", "alpha"))
	if err != nil {
		t.Fatalf("encode b: %v", err)
	}
	if a != b {
		t.Fatalf("registration order leaked into the hash: %s vs %s", a, b)
	}
}
