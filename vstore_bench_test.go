package cda

// vstore_bench_test.go holds the two versioned-store micro-benchmarks
// cdaload does not isolate. BenchmarkCommitOrdersTable: the first commit
// of scan_heavy's 60 000 × 5 orders table to a dir-backed store — the
// one data version a node's CommitData(0) writes at start-up — with the
// journal it leaves as pack-B/op. BenchmarkSessionVersionCommit: what a committed turn costs —
// WAL record with its fsync, and session version — as a function of how
// long the transcript already is (4/64/512 pairs); a version encodes the
// pair the turn added from the tree the session remembers, so time,
// bytes allocated and journal-B/op should read flat across the three
// (time carries one constant fsync a turn).

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"github.com/reliable-cda/cda/internal/dialogue"
	"github.com/reliable-cda/cda/internal/sessionstore"
	"github.com/reliable-cda/cda/internal/storage"
	"github.com/reliable-cda/cda/internal/vstore"
)

// ordersBenchDB builds scan_heavy's orders table as bench/cdaload does
// (seed 1): a sequential id, c%04d of 4 000 customers, eight region
// names, a quantity of 1–12 and a two-decimal amount.
func ordersBenchDB(rows int) *storage.Database {
	r := rand.New(rand.NewSource(1))
	regions := []string{"north", "south", "east", "west", "central", "alpine", "lakeside", "border"}
	t := storage.NewTable("orders", storage.Schema{
		{Name: "order_id", Kind: storage.KindInt},
		{Name: "customer", Kind: storage.KindString},
		{Name: "region", Kind: storage.KindString},
		{Name: "quantity", Kind: storage.KindInt},
		{Name: "amount", Kind: storage.KindFloat},
	})
	for i := 0; i < rows; i++ {
		t.MustAppendRow(storage.Int(int64(i+1)), storage.Str(fmt.Sprintf("c%04d", r.Intn(4000))),
			storage.Str(regions[r.Intn(len(regions))]), storage.Int(int64(1+r.Intn(12))),
			storage.Float(float64(100+r.Intn(99900))/100))
	}
	db := storage.NewDatabase("shop")
	db.Put(t)
	return db
}

func BenchmarkCommitOrdersTable(b *testing.B) {
	db := ordersBenchDB(60000)
	var pack int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, err := vstore.Open(vstore.Config{Dir: b.TempDir()})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := s.CommitDatabase("data", db, 0); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		_, pack = s.JournalSynced()
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(pack), "pack-B/op")
}

// sessionBenchTurns is how many turns one warmed-up session is timed for
// before the next is built: the transcript stays within 64 pairs of the
// length the sub-benchmark names.
const sessionBenchTurns = 64

func BenchmarkSessionVersionCommit(b *testing.B) {
	for _, pairs := range []int{4, 64, 512} {
		b.Run(fmt.Sprintf("pairs=%d", pairs), func(b *testing.B) {
			var st *sessionstore.Store
			var vs *vstore.Store
			var e *sessionstore.Entry
			var journal int64
			turn := func(j int) {
				err := e.Do(func(sess *dialogue.Session) error {
					sess.CommitTurn(fmt.Sprintf("how many employment where canton is Zurich in %04d", j), dialogue.IntentQuery,
						fmt.Sprintf("There are %05d rows of employment where canton is Zurich; the figure comes from employment.csv, filtered on canton = 'Zurich'.", j), 0.83)
					return st.CommitTurn(e)
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			// closeStores ends the timed stretch of one session and counts
			// what it put in the journal; the timer is stopped.
			closeStores := func(base int64) {
				_, size := vs.JournalSynced()
				journal += size - base
				if err := st.DeferredError(0); err != nil {
					b.Fatal(err)
				}
				if err := st.Close(); err != nil {
					b.Fatal(err)
				}
				if err := vs.Close(); err != nil {
					b.Fatal(err)
				}
			}
			var base int64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if i%sessionBenchTurns == 0 {
					b.StopTimer()
					if st != nil {
						closeStores(base)
					}
					dir := b.TempDir()
					var err error
					if vs, err = vstore.Open(vstore.Config{Dir: filepath.Join(dir, "vstore")}); err != nil {
						b.Fatal(err)
					}
					// No compaction inside the measurement: a snapshot
					// document is O(transcript) by design.
					st, err = sessionstore.Open(sessionstore.Config{Dir: dir, Shards: 1, SnapshotEvery: 1 << 30, Versions: vs})
					if err != nil {
						b.Fatal(err)
					}
					if e, err = st.NewSession(); err != nil {
						b.Fatal(err)
					}
					for j := 0; j < pairs; j++ {
						turn(j)
					}
					_, base = vs.JournalSynced()
					b.StartTimer()
				}
				turn(pairs + i%sessionBenchTurns)
			}
			b.StopTimer()
			closeStores(base)
			b.ReportMetric(float64(journal)/float64(b.N), "journal-B/op")
		})
	}
}
