package vstore

import (
	"fmt"
	"math"
	"testing"

	"github.com/reliable-cda/cda/internal/storage"
)

// The leaf-format pins, each a journal written by one Open, the
// fixture's commits and Close. testdata/readings-v5/chunks.pack is
// commitLeafFixture's: every column kind, NULLs and the values a codec
// gets wrong first, in plain leaves. testdata/leaf-v5/chunks.pack is
// commitOrdersFixture's: runs, dictionary and packed leaves. Both were
// written by the commit that made refs bytes — this file, compiled there
// unchanged — and this code writes them byte for byte.

const (
	readingsFixture   = "testdata/readings-v5"
	leafFixtureRoot   = "db/main"
	leafFixtureV5     = "testdata/leaf-v5"
	ordersFixtureRoot = "data"
)

// leafFixtureDB is a 260-row table (two leaves per column) of all four
// column kinds, with a NULL in every column and the values a number or
// string codec gets wrong first.
func leafFixtureDB() *storage.Database {
	ints := []int64{0, -1, math.MinInt64, math.MaxInt64, 1 << 53, -(1 << 53) - 1}
	floats := []float64{0, math.Copysign(0, -1), 1e-7, 9.99e-7, 1e21, 9.99e20, 0.1, -2.5,
		math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64, 1.0 / 3}
	labels := []string{"", "plain", `"quoted" \ back`, "tab\there\nnewline\x00nul\x1f", "<tag> & ampersand",
		"é ü 東京 🙂", "\u2028line sep", "null", "17"}
	tab := storage.NewTable("readings", storage.Schema{
		{Name: "id", Kind: storage.KindInt, Description: "row id"},
		{Name: "amount", Kind: storage.KindFloat},
		{Name: "label", Kind: storage.KindString, Description: "free text"},
		{Name: "ok", Kind: storage.KindBool},
	})
	tab.Description = "leaf codec fixture"
	for i := 0; i < 260; i++ {
		row := []storage.Value{
			storage.Int(int64(i) * 1001),
			storage.Float(float64(i) / 8),
			storage.Str(fmt.Sprintf("row-%03d", i)),
			storage.Bool(i%3 == 0),
		}
		if i < len(ints) {
			row[0] = storage.Int(ints[i])
		}
		if i < len(floats) {
			row[1] = storage.Float(floats[i])
		}
		if i < len(labels) {
			row[2] = storage.Str(labels[i])
		}
		if i >= 16 && i%7 < 4 { // past the edge values above
			row[i%7] = storage.Null()
		}
		tab.MustAppendRow(row...)
	}
	db := storage.NewDatabase("fixture")
	db.Put(tab)
	return db
}

// commitLeafFixture commits the fixture database at turn 0, then edits
// one row, appends two, and commits again at turn 1. It returns the
// database as it stood at each commit.
func commitLeafFixture(t testing.TB, s *Store) [2]*storage.Database {
	t.Helper()
	db := leafFixtureDB()
	if _, err := s.CommitDatabase(leafFixtureRoot, db, 0); err != nil {
		t.Fatal(err)
	}
	tab, err := db.Get("readings")
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Set(100, 2, storage.Str("edited")); err != nil {
		t.Fatal(err)
	}
	tab.MustAppendRow(storage.Int(260260), storage.Float(32.5), storage.Null(), storage.Bool(true))
	tab.MustAppendRow(storage.Null(), storage.Float(-32.5), storage.Str("last"), storage.Null())
	if _, err := s.CommitDatabase(leafFixtureRoot, db, 1); err != nil {
		t.Fatal(err)
	}
	return [2]*storage.Database{leafFixtureDB(), db}
}

// ordersFixtureDB is the shape of an uploaded CSV at 600 rows (three
// leaves per column, the last short): a sequential key, eight region
// names with one NULL in the middle leaf, a constant INT column, a
// periodic quantity and a two-decimal amount.
func ordersFixtureDB() *storage.Database {
	regions := []string{"north", "south", "east", "west", "central", "alpine", "lakeside", "border"}
	tab := storage.NewTable("orders", storage.Schema{
		{Name: "order_id", Kind: storage.KindInt},
		{Name: "region", Kind: storage.KindString},
		{Name: "store", Kind: storage.KindInt, Description: "one store"},
		{Name: "quantity", Kind: storage.KindInt},
		{Name: "amount", Kind: storage.KindFloat},
	})
	tab.Description = "orders codec fixture"
	for i := 0; i < 600; i++ {
		region := storage.Str(regions[(i*i+i/5)%len(regions)])
		if i == 300 {
			region = storage.Null()
		}
		tab.MustAppendRow(storage.Int(int64(i+1)), region, storage.Int(42),
			storage.Int(int64(1+i*7%12)), storage.Float(float64(i*3701%100000)/100))
	}
	db := storage.NewDatabase("shop")
	db.Put(tab)
	return db
}

// commitOrdersFixture commits ordersFixtureDB at turn 0, as a node's
// first CommitData does, and returns the database.
func commitOrdersFixture(t testing.TB, s *Store) *storage.Database {
	t.Helper()
	db := ordersFixtureDB()
	if _, err := s.CommitDatabase(ordersFixtureRoot, db, 0); err != nil {
		t.Fatal(err)
	}
	return db
}
