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

// column returns a one-column table of the given kind, the one way a
// vector is written.
func column(kind Kind) *Table {
	return NewTable("t", Schema{{Name: "c", Kind: kind}})
}

// TestVectorPerKind: a column of each kind takes its own kind and NULL
// through AppendRow, gives them back through At, and refuses the rest;
// the NULL bitmap grows with the rows it marks.
func TestVectorPerKind(t *testing.T) {
	samples := map[Kind][2]Value{
		KindInt:    {Int(math.MinInt64), Int(1 << 53)},
		KindFloat:  {Float(math.Copysign(0, -1)), Float(math.MaxFloat64)},
		KindString: {Str(""), Str("  x")},
		KindBool:   {Bool(true), Bool(false)},
	}
	for kind, pair := range samples {
		tbl := column(kind)
		col := tbl.Vector(0)
		// 130 rows: NULLs in the first, second and third bitmap words.
		want := make([]Value, 130)
		for r := range want {
			if r%9 != 0 && r != 63 && r != 64 && r != 128 {
				want[r] = pair[r%2]
			}
			if err := tbl.AppendRow([]Value{want[r]}); err != nil {
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

		for other, otherPair := range samples {
			if other == kind || (kind == KindFloat && other == KindInt) {
				continue
			}
			if err := tbl.AppendRow([]Value{otherPair[0]}); err == nil {
				t.Errorf("%s column took an appended %s", kind, other)
			}
		}
		check("after refusals")
	}

	// A column without a NULL has no bitmap.
	if tbl := column(KindInt); tbl.AppendRow([]Value{Int(1)}) != nil || tbl.Vector(0).Nulls() != nil {
		t.Errorf("NULL-free column carries a bitmap %v", tbl.Vector(0).Nulls())
	}

	// INT widens into FLOAT, 1<<53+1 rounding as AppendRow always
	// rounded it.
	wide := column(KindFloat)
	if err := wide.AppendRow([]Value{Int(1<<53 + 1)}); err != nil || wide.At(0, 0) != Float(1<<53) {
		t.Errorf("appended INT in a FLOAT column = %#v, %v", wide.At(0, 0), err)
	}

	// A KindNull column is a length: it takes NULL and nothing else.
	tbl := column(KindNull)
	for i := 0; i < 70; i++ {
		if err := tbl.AppendRow([]Value{Null()}); err != nil {
			t.Fatal(err)
		}
	}
	null := tbl.Vector(0)
	if null.Len() != 70 || !null.IsNull(69) || !null.At(69).IsNull() || null.NullCount(3, 70) != 67 || null.Nulls() != nil {
		t.Errorf("KindNull column: %d rows, bitmap %v", null.Len(), null.Nulls())
	}
	if tbl.AppendRow([]Value{Int(1)}) == nil || null.Len() != 70 {
		t.Error("KindNull column took a value")
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

// TestVectorGather: what sqldb's join output is built from.
func TestVectorGather(t *testing.T) {
	tbl := column(KindString)
	for r := 0; r < 200; r++ {
		v := Str(fmt.Sprint("s", r))
		if r%5 == 0 {
			v = Null()
		}
		tbl.MustAppendRow(v)
	}
	src := tbl.Vector(0)
	rows := []int{199, 0, 64, 65, 65, 130}
	picked := src.Gather(rows)
	if picked.Kind() != KindString || picked.Len() != len(rows) {
		t.Fatalf("gathered %d rows of %s", picked.Len(), picked.Kind())
	}
	for i, r := range rows {
		if picked.At(i) != src.At(r) || picked.IsNull(i) != src.IsNull(r) {
			t.Errorf("gathered row %d = %v, want row %d = %v", i, picked.At(i), r, src.At(r))
		}
	}
	if none := src.Gather(nil); none.Len() != 0 || none.Kind() != KindString {
		t.Errorf("gathering no rows: %d rows of %s", none.Len(), none.Kind())
	}

	// A string the source takes after the gather is past what the
	// gathered vector's dictionary holds.
	dict := len(picked.Dict())
	tbl.MustAppendRow(Str("later"))
	if len(picked.Dict()) != dict || picked.At(0) != Str("s199") {
		t.Errorf("the source's append reached the gathered vector: %q", picked.Dict())
	}
}

// fuzzValue draws a value from b: its kind from b%5, and from b/5 one
// of a few values of that kind, so that TEXT vectors built apart end up
// with dictionaries that overlap and differ.
func fuzzValue(b int) Value {
	i := b / 5
	switch Kind(b % 5) {
	case KindInt:
		return Int([]int64{0, 1, -1, math.MaxInt64, math.MinInt64, 1<<53 + 1}[i%6])
	case KindFloat:
		return Float([]float64{math.Copysign(0, -1), 0, 1.5, math.MaxFloat64, 1 << 53}[i%5])
	case KindString:
		return Str([]string{"", "a", "b", "north", "é東", "a\x1fb", "south"}[i%7])
	case KindBool:
		return Bool(i%2 == 0)
	default:
		return Null()
	}
}

// vectorScript builds a FuzzVectorOps script, four bytes a step.
func vectorScript(steps ...[4]byte) []byte {
	var out []byte
	for _, s := range steps {
		out = append(out, s[:]...)
	}
	return out
}

// FuzzVectorOps runs a script of AppendRow, Gather and seal steps over
// one-column tables of every kind, KindNull among them, and after each
// step checks every vector against a []Value oracle: each row, each
// NULL, and a TEXT vector's dictionary holding no string twice. A step
// is four bytes — op, target vector, operand, row — and vectors that
// Gather makes join the set, read-only, so a source written after it
// gathered, which shares its dictionary with the gathered vector, is
// checked against both.
func FuzzVectorOps(f *testing.F) {
	const (
		opAppend = iota
		opGather
		opSeal
	)
	const a, b, north, east, sep, south = 8, 13, 18, 23, 28, 33 // fuzzValue TEXT operands
	text := byte(KindString)
	// A gathered vector, and its source written afterwards: three
	// strings leave the source's dictionary room to grow in place.
	f.Add(vectorScript(
		[4]byte{opAppend, text, a}, [4]byte{opAppend, text, b}, [4]byte{opAppend, text, north},
		[4]byte{opGather, text, 3}, [4]byte{opAppend, text, east}, [4]byte{opAppend, text, south},
		[4]byte{opGather, 5, 2, 1}, [4]byte{opAppend, text, sep}, [4]byte{opGather, text, 8, 2},
	))
	// A gathered vector gathered from again, and a source that takes a
	// string its gathered vector already holds.
	f.Add(vectorScript(
		[4]byte{opAppend, text, a}, [4]byte{opAppend, text, b}, [4]byte{opAppend, text, 0},
		[4]byte{opGather, text, 4}, [4]byte{opGather, 5, 3, 1}, [4]byte{opAppend, text, a},
		[4]byte{opAppend, text, north}, [4]byte{opAppend, 5, south}, [4]byte{opSeal, text},
	))
	// TEXT NULLs, and a gather of no rows.
	f.Add(vectorScript(
		[4]byte{opAppend, text, a}, [4]byte{opAppend, text, 0}, [4]byte{opAppend, text, 0},
		[4]byte{opGather, text, 0}, [4]byte{opGather, text, 5, 1}, [4]byte{opAppend, text, east},
	))
	// KindNull: NULL goes in, nothing else does; INT widens into FLOAT.
	f.Add(vectorScript(
		[4]byte{opAppend, 0, 0}, [4]byte{opAppend, 0, 1}, [4]byte{opAppend, 0, a}, [4]byte{opAppend, 2, 1},
		[4]byte{opAppend, 2, 0}, [4]byte{opAppend, 1, 2}, [4]byte{opAppend, 2, 6}, [4]byte{opGather, 0, 2},
		[4]byte{opGather, 2, 3}, [4]byte{opSeal, 0}, [4]byte{opSeal, 2},
	))
	// NULLs in two bitmap words, and appends after a load's seal.
	var long [][4]byte
	for i := 0; i <= 64; i++ {
		v := byte([]int{a, north, b}[i%3])
		if i%64 == 0 {
			v = 0
		}
		long = append(long, [4]byte{opAppend, text, v}, [4]byte{opAppend, 1, byte(1 + 5*(i%3))})
	}
	long = append(long, [4]byte{opAppend, text, a}, [4]byte{opSeal, text}, [4]byte{opAppend, text, sep},
		[4]byte{opGather, text, 8, 60}, [4]byte{opSeal, 1}, [4]byte{opAppend, 1, 0}, [4]byte{opGather, 1, 7, 62})
	f.Add(vectorScript(long...))

	f.Fuzz(func(t *testing.T, script []byte) {
		type tracked struct {
			tbl  *Table // nil for a gathered vector, which nothing writes
			v    *Vector
			want []Value
		}
		var vecs []*tracked
		for k := KindNull; k <= KindBool; k++ {
			tbl := column(k)
			vecs = append(vecs, &tracked{tbl: tbl, v: tbl.Vector(0)})
		}
		for step := 0; len(script) >= 4; step, script = step+1, script[4:] {
			op, x, operand, row := script[0]%3, vecs[int(script[1])%len(vecs)], int(script[2]), int(script[3])
			kind := x.v.Kind()
			switch op {
			case opAppend:
				if x.tbl == nil {
					break
				}
				val := fuzzValue(operand)
				want, ok := fit(kind, val)
				if err := x.tbl.AppendRow([]Value{val}); (err == nil) != (ok == nil) {
					t.Fatalf("step %d: %s vector took %#v: %v", step, kind, val, err)
				}
				if ok == nil {
					x.want = append(x.want, want)
				}
			case opGather:
				rows := make([]int, operand%9)
				want := make([]Value, len(rows))
				for i := range rows {
					if len(x.want) == 0 {
						rows, want = nil, nil
						break
					}
					rows[i] = (row + 7*i) % len(x.want)
					want[i] = x.want[rows[i]]
				}
				g := &tracked{v: x.v.Gather(rows), want: want}
				if len(vecs) < 8 {
					vecs = append(vecs, g)
				} else {
					vecs[len(vecs)-1] = g
				}
			case opSeal:
				x.v.seal()
			}
			for n, tr := range vecs {
				v := tr.v
				if v.Len() != len(tr.want) {
					t.Fatalf("step %d: vector %d has %d rows, want %d", step, n, v.Len(), len(tr.want))
				}
				nulls := 0
				for r, w := range tr.want {
					got := v.At(r)
					if got != w || math.Float64bits(got.F) != math.Float64bits(w.F) || v.IsNull(r) != w.IsNull() {
						t.Fatalf("step %d: vector %d row %d = %#v (NULL %v), want %#v", step, n, r, got, v.IsNull(r), w)
					}
					if w.IsNull() {
						nulls++
					}
				}
				if got := v.NullCount(0, v.Len()); got != nulls {
					t.Fatalf("step %d: vector %d counts %d NULLs, want %d", step, n, got, nulls)
				}
				if v.Kind() == KindString {
					seen := make(map[string]bool, len(v.Dict()))
					for _, s := range v.Dict() {
						if seen[s] {
							t.Fatalf("step %d: vector %d holds %q twice in its dictionary %q", step, n, s, v.Dict())
						}
						seen[s] = true
					}
				}
			}
		}
	})
}

// TestDistinctStringsMemo: the distinct strings are computed once per
// column, shared by concurrent readers, and dropped by an appended row.
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

// TestTableBytesPerValue holds what a loaded table keeps on the heap —
// the in-memory twin of vstore's TestLeafBytesPerValue. The orders
// table stays within 8 bytes per value (it logs ~6.8; a TEXT cell as
// its own string took ~16.3, a []Value column 48 for the cell alone),
// and a TEXT column of distinct keys, the one shape a dictionary makes
// larger, within 40 bytes a row: 4 above what it took as strings.
func TestTableBytesPerValue(t *testing.T) {
	var keys bytes.Buffer
	keys.WriteString("order_key\n")
	for i := 0; i < ordersRows; i++ {
		fmt.Fprintf(&keys, "key-%06d\n", i)
	}
	for _, c := range []struct {
		name, schema string
		text         []byte
		perValue     float64
	}{
		{"orders", "[order_id customer region quantity amount] [INT TEXT TEXT INT FLOAT]", ordersCSV(ordersRows), 8},
		{"distinct keys", "[order_key] [TEXT]", keys.Bytes(), 40},
	} {
		tbl, live, _ := measureLoad(t, c.text)
		var kinds []Kind
		for _, def := range tbl.Schema() {
			kinds = append(kinds, def.Kind)
		}
		if tbl.NumRows() != ordersRows || fmt.Sprint(tbl.Schema().Names(), " ", kinds) != c.schema {
			t.Fatalf("%s: loaded %d rows, schema %v", c.name, tbl.NumRows(), tbl.Schema())
		}
		values := float64(tbl.NumRows() * tbl.NumCols())
		t.Logf("%s: %.0f values in %d bytes of live heap: %.2f bytes per value", c.name, values, live, float64(live)/values)
		if float64(live) > c.perValue*values {
			t.Errorf("%s: table keeps %d bytes live for %.0f values, want at most %.0f per value", c.name, live, values, c.perValue)
		}
		runtime.KeepAlive(tbl)
	}
}

// requireSealed requires every vector of tbl to be as a load leaves it:
// each slice at its exact length, and no index.
func requireSealed(t *testing.T, tbl *Table) {
	t.Helper()
	for c, v := range tbl.cols {
		if v.index != nil || cap(v.ints) != len(v.ints) || cap(v.floats) != len(v.floats) || cap(v.bools) != len(v.bools) ||
			cap(v.dict) != len(v.dict) || cap(v.codes) != len(v.codes) || cap(v.nulls) != len(v.nulls) {
			t.Fatalf("column %s of %s is not sealed: index of %d, slices %d/%d %d/%d %d/%d %d/%d %d/%d %d/%d long/cap", tbl.schema[c].Name, tbl.Name, len(v.index),
				len(v.ints), cap(v.ints), len(v.floats), cap(v.floats), len(v.bools), cap(v.bools),
				len(v.dict), cap(v.dict), len(v.codes), cap(v.codes), len(v.nulls), cap(v.nulls))
		}
	}
}

// TestReadCSVStreams holds what loading the orders table allocates in
// total to 16 MB (it logs ~13.5; a string per TEXT cell took 20.0, and
// reading all records first, then a []Value per row, 97.5 MB), and
// requires a TEXT value to own its bytes: one carved out of its CSV
// line keeps the whole line alive.
func TestReadCSVStreams(t *testing.T) {
	tbl, _, allocated := measureLoad(t, ordersCSV(ordersRows))
	t.Logf("loading allocated %.1f MB", float64(allocated)/(1<<20))
	requireSealed(t, tbl)
	if allocated > 16<<20 {
		t.Fatalf("ReadCSV allocated %d bytes, want at most 16 MB", allocated)
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
		t.Fatalf("loaded %d rows ending %v", tbl.NumRows(), rowOf(tbl, tbl.NumRows()-1))
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
// cold builds them (the memo dropped), warm is every later ask.
func BenchmarkDistinctStrings(b *testing.B) {
	tbl, err := ReadCSV("orders", bytes.NewReader(ordersCSV(ordersRows)), nil)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []string{"cold", "warm"} {
		b.Run(mode, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if mode == "cold" {
					tbl.cols[1].distinct.Store(nil)
				}
				if vals, err := tbl.DistinctStrings("customer"); err != nil || len(vals) == 0 {
					b.Fatal(vals, err)
				}
			}
		})
	}
}
