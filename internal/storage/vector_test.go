package storage

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// TestVectorPerKind: a column of each kind takes its own kind and NULL
// through Append and Set, gives them back through At, and refuses the
// rest; the NULL bitmap grows with the rows it marks.
func TestVectorPerKind(t *testing.T) {
	samples := map[Kind][2]Value{
		KindInt:    {Int(math.MinInt64), Int(1 << 53)},
		KindFloat:  {Float(math.Copysign(0, -1)), Float(math.MaxFloat64)},
		KindString: {Str(""), Str("  x")},
		KindBool:   {Bool(true), Bool(false)},
	}
	for kind, pair := range samples {
		col := NewVector(kind, 0)
		// 130 rows: NULLs in the first, second and third bitmap words.
		want := make([]Value, 130)
		for r := range want {
			if r%9 != 0 && r != 63 && r != 64 && r != 128 {
				want[r] = pair[r%2]
			}
			if err := col.Append(want[r]); err != nil {
				t.Fatalf("%s: append %v: %v", kind, want[r], err)
			}
		}
		check := func(when string) {
			t.Helper()
			if col.Len() != len(want) || col.Kind() != kind {
				t.Fatalf("%s %s: %d rows of %s", kind, when, col.Len(), col.Kind())
			}
			for r, w := range want {
				got := col.At(r)
				if got != w || math.Signbit(got.F) != math.Signbit(w.F) || col.IsNull(r) != w.IsNull() {
					t.Fatalf("%s %s: row %d = %#v (null %v), want %#v", kind, when, r, got, col.IsNull(r), w)
				}
			}
			if got, nulls := col.NullCount(0, len(want)), len(want)-countValues(want); got != nulls {
				t.Fatalf("%s %s: %d NULLs counted, want %d", kind, when, got, nulls)
			}
			if got, want := col.NullCount(62, 66), len(want[62:66])-countValues(want[62:66]); got != want {
				t.Fatalf("%s %s: %d NULLs in rows 62–65, want %d", kind, when, got, want)
			}
		}
		check("appended")
		if len(col.Nulls()) != 3 {
			t.Fatalf("%s: NULL bitmap of %d words for a last NULL in row 128", kind, len(col.Nulls()))
		}
		// Set: NULL over a value and a value over NULL, either side of
		// a word boundary.
		for _, r := range []int{1, 62, 65, 129} {
			want[r] = Null()
		}
		want[0], want[63], want[64], want[128] = pair[0], pair[0], pair[1], pair[0]
		for _, r := range []int{1, 62, 65, 129, 0, 63, 64, 128} {
			if err := col.Set(r, want[r]); err != nil {
				t.Fatalf("%s: set row %d: %v", kind, r, err)
			}
		}
		check("set")

		for other, otherPair := range samples {
			if other == kind || (kind == KindFloat && other == KindInt) {
				continue
			}
			if err := col.Append(otherPair[0]); err == nil {
				t.Errorf("%s column took an appended %s", kind, other)
			}
			if err := col.Set(0, otherPair[0]); err == nil {
				t.Errorf("%s column took a %s through Set", kind, other)
			}
		}
		for _, r := range []int{-1, col.Len()} {
			if err := col.Set(r, Null()); err == nil {
				t.Errorf("%s column: Set(%d) accepted", kind, r)
			}
		}
		check("after refusals")
	}

	// A column without a NULL has no bitmap.
	if col := NewVector(KindInt, 0); col.Append(Int(1)) != nil || col.Nulls() != nil {
		t.Errorf("NULL-free column carries a bitmap %v", col.Nulls())
	}

	// INT widens into FLOAT through Append and Set, 1<<53+1 rounding as
	// AppendRow always rounded it.
	wide := NewVector(KindFloat, 0)
	if err := wide.Append(Int(1<<53 + 1)); err != nil || wide.At(0) != Float(1<<53) {
		t.Errorf("appended INT in a FLOAT column = %#v, %v", wide.At(0), err)
	}
	if err := wide.Set(0, Int(-3)); err != nil || wide.At(0) != Float(-3) {
		t.Errorf("INT set in a FLOAT column = %#v, %v", wide.At(0), err)
	}

	// A KindNull column is a length: it takes NULL and nothing else.
	null := NewVector(KindNull, 0)
	for i := 0; i < 70; i++ {
		if err := null.Append(Null()); err != nil {
			t.Fatal(err)
		}
	}
	if null.Len() != 70 || !null.IsNull(69) || !null.At(69).IsNull() || null.NullCount(3, 70) != 67 || null.Nulls() != nil {
		t.Errorf("KindNull column: %d rows, bitmap %v", null.Len(), null.Nulls())
	}
	if null.Append(Int(1)) == nil || null.Set(0, Str("x")) == nil || null.Set(0, Null()) != nil {
		t.Error("KindNull column took a value, or refused NULL")
	}
}

func countValues(vals []Value) int {
	n := 0
	for _, v := range vals {
		if !v.IsNull() {
			n++
		}
	}
	return n
}

// TestVectorExtendAndGather: what sqldb's join output and the version
// store's materialize are built from.
func TestVectorExtendAndGather(t *testing.T) {
	src := NewVector(KindString, 0)
	for r := 0; r < 200; r++ {
		v := Str(fmt.Sprint("s", r))
		if r%5 == 0 {
			v = Null()
		}
		if err := src.Append(v); err != nil {
			t.Fatal(err)
		}
	}
	rows := []int{199, 0, 64, 65, 65, 130}
	picked := src.Gather(rows)
	if picked.Kind() != KindString || picked.Len() != len(rows) {
		t.Fatalf("gathered %d rows of %s", picked.Len(), picked.Kind())
	}
	for i, r := range rows {
		if picked.At(i) != src.At(r) {
			t.Errorf("gathered row %d = %v, want row %d = %v", i, picked.At(i), r, src.At(r))
		}
	}
	if none := src.Gather(nil); none.Len() != 0 || none.Kind() != KindString {
		t.Errorf("gathering no rows: %d rows of %s", none.Len(), none.Kind())
	}

	// Extend at an offset that is no multiple of 64, so NULL bits shift.
	dst := NewVector(KindString, 0)
	for _, part := range []*Vector{picked, src, NewVector(KindNull, 0), src.Gather([]int{1, 5})} {
		if err := dst.Extend(part); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < src.Len(); r++ {
		if got := dst.At(len(rows) + r); got != src.At(r) {
			t.Fatalf("extended row %d = %v, want %v", r, got, src.At(r))
		}
	}
	if dst.Len() != len(rows)+src.Len()+2 || !dst.IsNull(dst.Len()-1) {
		t.Errorf("extended column has %d rows", dst.Len())
	}

	floats := NewVector(KindFloat, 0)
	ints := NewVector(KindInt, 0)
	nulls := NewVector(KindNull, 0)
	for _, v := range []Value{Int(2), Null(), Int(-7)} {
		if ints.Append(v) != nil || nulls.Append(Null()) != nil {
			t.Fatal("append")
		}
	}
	if err := floats.Extend(ints); err != nil || floats.At(0) != Float(2) || !floats.IsNull(1) || floats.At(2) != Float(-7) {
		t.Errorf("INT column into FLOAT column: %v %v %v, %v", floats.At(0), floats.At(1), floats.At(2), err)
	}
	if err := floats.Extend(nulls); err != nil || floats.Len() != 6 || floats.NullCount(0, 6) != 4 {
		t.Errorf("KindNull column into FLOAT column: %d rows, %v", floats.Len(), err)
	}
	if err := ints.Extend(floats); err == nil {
		t.Error("FLOAT column went into an INT column")
	}
	if err := ints.Extend(src); err == nil {
		t.Error("TEXT column went into an INT column")
	}
}

// TestTableSet: Set writes under AppendRow's rules and names what it
// refused.
func TestTableSet(t *testing.T) {
	tbl := testTable(t)
	for _, ok := range []struct {
		row, col int
		v, want  Value
	}{
		{0, 0, Int(9), Int(9)}, {1, 1, Null(), Null()}, {2, 2, Int(3), Float(3)}, {2, 2, Float(0.5), Float(0.5)},
	} {
		if err := tbl.Set(ok.row, ok.col, ok.v); err != nil || tbl.At(ok.row, ok.col) != ok.want {
			t.Errorf("Set(%d, %d, %v): cell %v, %v", ok.row, ok.col, ok.v, tbl.At(ok.row, ok.col), err)
		}
	}
	before := fmt.Sprint(tbl.Row(0), tbl.Row(1), tbl.Row(2))
	for _, bad := range []struct {
		row, col int
		v        Value
	}{{0, 0, Str("x")}, {0, 0, Float(1)}, {0, 1, Int(1)}, {3, 0, Int(1)}, {-1, 0, Int(1)}, {0, 3, Int(1)}, {0, -1, Int(1)}} {
		if err := tbl.Set(bad.row, bad.col, bad.v); err == nil {
			t.Errorf("Set(%d, %d, %v) accepted", bad.row, bad.col, bad.v)
		}
	}
	if after := fmt.Sprint(tbl.Row(0), tbl.Row(1), tbl.Row(2)); after != before {
		t.Errorf("refused writes changed the table: %s → %s", before, after)
	}
	// A refused row leaves no column longer than the others.
	if err := tbl.AppendRow([]Value{Int(4), Str("dee"), Str("much")}); err == nil || tbl.Vector(0).Len() != 3 {
		t.Errorf("refused row: %v, first column now %d rows", err, tbl.Vector(0).Len())
	}
}

// TestDistinctStringsMemo: the distinct strings are computed once per
// column, shared by concurrent readers, and dropped by every write.
func TestDistinctStringsMemo(t *testing.T) {
	tbl := testTable(t)
	first, err := tbl.DistinctStrings("name")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := tbl.DistinctStrings("NAME")
			if err != nil || &got[0] != &first[0] {
				t.Errorf("a second reader got %v, %v; want the memoised slice", got, err)
			}
			if ids, err := tbl.DistinctStrings("id"); err != nil || fmt.Sprint(ids) != "[1 2 3]" {
				t.Errorf("distinct ids = %v, %v", ids, err)
			}
		}()
	}
	wg.Wait()
	tbl.MustAppendRow(Int(4), Str("zed"), Null())
	if got, _ := tbl.DistinctStrings("name"); fmt.Sprint(got) != "[ada bob cid zed]" {
		t.Errorf("after AppendRow: %v", got)
	}
	if err := tbl.Set(0, 1, Null()); err != nil {
		t.Fatal(err)
	}
	if got, _ := tbl.DistinctStrings("name"); fmt.Sprint(got) != "[bob cid zed]" {
		t.Errorf("after Set: %v", got)
	}
	if fmt.Sprint(first) != "[ada bob cid]" {
		t.Errorf("an earlier answer was rewritten: %v", first)
	}
}

// ordersCSV renders the benchmark's scan_heavy table shape — int id,
// c%04d customer, eight region names, 1–12, a two-decimal amount — as
// CSV text.
func ordersCSV(rows int) []byte {
	regions := []string{"north", "south", "east", "west", "central", "alpine", "lakeside", "border"}
	rng := rand.New(rand.NewSource(1))
	var buf bytes.Buffer
	buf.WriteString("order_id,customer,region,quantity,amount\n")
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&buf, "%d,c%04d,%s,%d,%.2f\n", i+1, rng.Intn(4000), regions[rng.Intn(len(regions))], 1+rng.Intn(12), float64(100+rng.Intn(99900))/100)
	}
	return buf.Bytes()
}

const ordersRows = 60000

// measureLoad reads text as CSV and returns the table with the live
// heap it added and the bytes allocated on the way.
func measureLoad(t *testing.T, text []byte) (tbl *Table, live, allocated int64) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tbl, err := ReadCSV("loaded", bytes.NewReader(text), nil)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(text)
	return tbl, int64(after.HeapAlloc) - int64(before.HeapAlloc), int64(after.TotalAlloc - before.TotalAlloc)
}

// TestTableBytesPerValue holds what a loaded table keeps on the heap to
// 20 bytes per value (a []Value column took 48 for the cell alone) —
// the in-memory twin of vstore's TestLeafBytesPerValue.
func TestTableBytesPerValue(t *testing.T) {
	tbl, live, _ := measureLoad(t, ordersCSV(ordersRows))
	if tbl.NumRows() != ordersRows || fmt.Sprint(tbl.Schema().Names(), tbl.Vector(1).Kind(), tbl.Vector(4).Kind()) != "[order_id customer region quantity amount] TEXT FLOAT" {
		t.Fatalf("loaded %d rows, schema %v", tbl.NumRows(), tbl.Schema())
	}
	values := int64(tbl.NumRows() * tbl.NumCols())
	t.Logf("%d values in %d bytes of live heap: %.2f bytes per value", values, live, float64(live)/float64(values))
	if live > 20*values {
		t.Fatalf("table keeps %d bytes live for %d values, want at most 20 per value", live, values)
	}
	runtime.KeepAlive(tbl)
}

// TestReadCSVStreams holds what loading that table allocates in total
// to 30 MB (reading all records first, then a []Value per row, took
// 97.5 MB), and requires a TEXT cell to own its bytes: one carved out
// of its CSV line keeps the whole line alive.
func TestReadCSVStreams(t *testing.T) {
	tbl, _, allocated := measureLoad(t, ordersCSV(ordersRows))
	t.Logf("loading allocated %.1f MB", float64(allocated)/(1<<20))
	if allocated > 30<<20 {
		t.Fatalf("ReadCSV allocated %d bytes, want at most 30 MB", allocated)
	}
	runtime.KeepAlive(tbl)

	// 2 000 lines of a short TEXT cell beside a 400-digit FLOAT: 0.8 MB
	// of lines, of which the table needs the short cells only.
	const rows = 2000
	var wide bytes.Buffer
	wide.WriteString("k,x\n")
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&wide, "k%d,1.%s\n", i, strings.Repeat("0", 400))
	}
	tbl, live, _ := measureLoad(t, wide.Bytes())
	if tbl.NumRows() != rows || tbl.At(rows-1, 0) != Str(fmt.Sprint("k", rows-1)) || tbl.At(rows-1, 1) != Float(1) {
		t.Fatalf("loaded %d rows ending %v", tbl.NumRows(), tbl.Row(tbl.NumRows()-1))
	}
	t.Logf("%d short TEXT cells off %d-byte lines keep %d bytes live", rows, wide.Len()/rows, live)
	if live > 100*rows {
		t.Fatalf("table keeps %d bytes live, %d per row: its TEXT cells hold on to their lines", live, live/rows)
	}
	runtime.KeepAlive(tbl)

	// TrimLeadingSpace and quoting still apply, cell by cell, past the
	// rows the kinds are inferred from as within them.
	quoted := "a,b\n" + strings.Repeat(" \"x,y\",  7\n", inferRows+1)
	got, err := ReadCSV("q", strings.NewReader(quoted), nil)
	if err != nil || got.NumRows() != inferRows+1 || got.At(inferRows, 0) != Str("x,y") || got.At(inferRows, 1) != Int(7) {
		t.Errorf("quoted cells: %v", err)
	}
}

func BenchmarkReadCSV(b *testing.B) {
	text := ordersCSV(ordersRows)
	b.SetBytes(int64(len(text)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadCSV("orders", bytes.NewReader(text), nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDistinctStrings reads the 4 000-customer column's distinct
// values as nl2sql's value resolver does for every filtered question:
// cold builds them (a write dropped the memo), warm is every later ask.
func BenchmarkDistinctStrings(b *testing.B) {
	tbl, err := ReadCSV("orders", bytes.NewReader(ordersCSV(ordersRows)), nil)
	if err != nil {
		b.Fatal(err)
	}
	first := tbl.At(0, 1)
	for _, mode := range []string{"cold", "warm"} {
		b.Run(mode, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if mode == "cold" {
					if err := tbl.Set(0, 1, first); err != nil {
						b.Fatal(err)
					}
				}
				if vals, err := tbl.DistinctStrings("customer"); err != nil || len(vals) == 0 {
					b.Fatal(vals, err)
				}
			}
		})
	}
}
