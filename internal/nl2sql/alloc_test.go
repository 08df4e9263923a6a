package nl2sql

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"github.com/reliable-cda/cda/internal/storage"
)

// ordersDB is the benchmark's scan_heavy fact table: 60 000 orders,
// 4 000 customers, eight regions.
func ordersDB() *storage.Database {
	regions := []string{"north", "south", "east", "west", "central", "alpine", "lakeside", "border"}
	rng := rand.New(rand.NewSource(1))
	orders := storage.NewTable("orders", storage.Schema{
		{Name: "order_id", Kind: storage.KindInt},
		{Name: "customer", Kind: storage.KindString},
		{Name: "region", Kind: storage.KindString},
		{Name: "quantity", Kind: storage.KindInt},
		{Name: "amount", Kind: storage.KindFloat},
	})
	for i := 0; i < 60000; i++ {
		orders.MustAppendRow(storage.Int(int64(i+1)), storage.Str(fmt.Sprintf("c%04d", rng.Intn(4000))),
			storage.Str(regions[rng.Intn(len(regions))]), storage.Int(int64(1+rng.Intn(12))),
			storage.Float(float64(100+rng.Intn(99900))/100))
	}
	db := storage.NewDatabase("shop")
	db.Put(orders)
	return db
}

// TestTranslateListAllocations bounds what translating a filtered list
// question over the orders table allocates to 3.9 MB (it logs ~2.7).
// When the verifier's engine recorded row provenance, filter buffers
// were sized by the whole table, and every sample fingerprinted its
// result as one string per row, the same question allocated 7.8 MB;
// the bound is half of that.
func TestTranslateListAllocations(t *testing.T) {
	db := ordersDB()
	tr := NewTranslator(db, fixtureGrounder(db), 1)
	const q = "list the customer and region of orders where region is north"
	// The first question builds what later ones share: the column's
	// distinct values and the schema's repair artifacts.
	first, err := tr.Translate(q)
	if err != nil || first.Abstained || first.Result == nil || len(first.Result.Rows) < 7000 {
		t.Fatalf("translate %q: %+v, %v", q, first, err)
	}
	const runs = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := tr.Translate(q); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	per := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("%q: %d rows, %.2f MB allocated per translation", q, len(first.Result.Rows), per/(1<<20))
	if per > 3.9*(1<<20) {
		t.Fatalf("a translation allocated %.2f MB, want at most 3.9", per/(1<<20))
	}
}
