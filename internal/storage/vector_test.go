package storage

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
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

// FuzzVectorOps runs a script of Append, Set, Extend, Gather and seal
// steps over vectors of every kind, KindNull among them, and after each
// step checks every vector against a []Value oracle: each row, each
// NULL, and a TEXT vector's dictionary holding no string twice. A step
// is four bytes — op, target vector, operand, row — and vectors that
// Gather makes join the set, so a gathered vector and its source, which
// share a dictionary, are both written afterwards, and Extend runs
// across vectors whose dictionaries differ.
func FuzzVectorOps(f *testing.F) {
	const (
		opAppend = iota
		opSet
		opExtend
		opGather
		opSeal
	)
	const a, b, north, east, sep, south = 8, 13, 18, 23, 28, 33 // fuzzValue TEXT operands
	text := byte(KindString)
	// A gathered vector and its source, each written afterwards: three
	// strings leave the source's dictionary room to grow in place.
	f.Add(vectorScript(
		[4]byte{opAppend, text, a}, [4]byte{opAppend, text, b}, [4]byte{opAppend, text, north},
		[4]byte{opGather, text, 3}, [4]byte{opAppend, 5, east}, [4]byte{opAppend, text, south},
		[4]byte{opSet, 5, sep, 1}, [4]byte{opSet, text, sep, 0}, [4]byte{opGather, 5, 2, 1},
	))
	// Extend across two dictionaries, each way, and a vector by itself.
	f.Add(vectorScript(
		[4]byte{opAppend, text, a}, [4]byte{opAppend, text, b}, [4]byte{opAppend, text, 0},
		[4]byte{opGather, text, 0}, [4]byte{opAppend, 5, south}, [4]byte{opAppend, 5, north},
		[4]byte{opAppend, 5, b}, [4]byte{opAppend, 5, 0}, [4]byte{opExtend, text, 5},
		[4]byte{opExtend, 5, text}, [4]byte{opExtend, text, text},
	))
	// TEXT set to NULL and back, and a row past the end.
	f.Add(vectorScript(
		[4]byte{opAppend, text, a}, [4]byte{opAppend, text, b}, [4]byte{opSet, text, 0, 0},
		[4]byte{opSet, text, a, 0}, [4]byte{opSet, text, 0, 1}, [4]byte{opSet, text, east, 1},
		[4]byte{opSet, text, a, 2}, [4]byte{opSet, text, 1, 0},
	))
	// KindNull: NULL goes in, nothing else does, and it fits any kind.
	f.Add(vectorScript(
		[4]byte{opAppend, 0, 0}, [4]byte{opAppend, 0, 1}, [4]byte{opAppend, 0, a}, [4]byte{opSet, 0, 0, 0},
		[4]byte{opSet, 0, 1, 0}, [4]byte{opExtend, 1, 0}, [4]byte{opExtend, 2, 1}, [4]byte{opExtend, 0, 1},
		[4]byte{opExtend, 0, 0}, [4]byte{opExtend, text, 0}, [4]byte{opGather, 0, 2}, [4]byte{opSeal, 0},
	))
	// NULLs in two bitmap words, a vector extended by itself and then
	// appended to, and writes after a load's seal.
	var long [][4]byte
	for i := 0; i <= 64; i++ {
		v := byte([]int{a, north, b}[i%3])
		if i%64 == 0 {
			v = 0
		}
		long = append(long, [4]byte{opAppend, text, v}, [4]byte{opAppend, 1, byte(1 + 5*(i%3))})
	}
	long = append(long, [4]byte{opExtend, text, text}, [4]byte{opAppend, text, a},
		[4]byte{opSeal, text}, [4]byte{opAppend, text, sep}, [4]byte{opSet, text, south, 65},
		[4]byte{opGather, text, 8, 60}, [4]byte{opExtend, 5, text}, [4]byte{opExtend, text, text}, [4]byte{opSeal, 1}, [4]byte{opSet, 1, 0, 64})
	f.Add(vectorScript(long...))

	f.Fuzz(func(t *testing.T, script []byte) {
		type tracked struct {
			v    *Vector
			want []Value
		}
		var vecs []*tracked
		for k := KindNull; k <= KindBool; k++ {
			vecs = append(vecs, &tracked{v: NewVector(k, 0)})
		}
		for step := 0; len(script) >= 4; step, script = step+1, script[4:] {
			op, x, operand, row := script[0]%5, vecs[int(script[1])%len(vecs)], int(script[2]), int(script[3])
			kind := x.v.Kind()
			switch op {
			case opAppend:
				val := fuzzValue(operand)
				want, ok := fit(kind, val)
				if err := x.v.Append(val); (err == nil) != (ok == nil) {
					t.Fatalf("step %d: %s vector took %#v: %v", step, kind, val, err)
				}
				if ok == nil {
					x.want = append(x.want, want)
				}
			case opSet:
				val := fuzzValue(operand)
				r := row % (len(x.want) + 1)
				want, ok := fit(kind, val)
				if err := x.v.Set(r, val); (err == nil) != (ok == nil && r < len(x.want)) {
					t.Fatalf("step %d: set row %d of %d in a %s vector to %#v: %v", step, r, len(x.want), kind, val, err)
				}
				if ok == nil && r < len(x.want) && kind != KindNull {
					x.want[r] = want
				}
			case opExtend:
				src := vecs[operand%len(vecs)]
				_, ok := fit(kind, Value{Kind: src.v.Kind()})
				srcWant := slices.Clone(src.want)
				if err := x.v.Extend(src.v); (err == nil) != (ok == nil) {
					t.Fatalf("step %d: extend a %s vector by a %s one: %v", step, kind, src.v.Kind(), err)
				}
				if ok == nil {
					for _, v := range srcWant {
						w, _ := fit(kind, v)
						x.want = append(x.want, w)
					}
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
				if _, err := TableFromColumns("t", Schema{{Name: "c", Kind: kind}}, []*Vector{x.v}); err != nil {
					t.Fatalf("step %d: sealing a %s vector: %v", step, kind, err)
				}
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
	before := fmt.Sprint(rowOf(tbl, 0), rowOf(tbl, 1), rowOf(tbl, 2))
	for _, bad := range []struct {
		row, col int
		v        Value
	}{{0, 0, Str("x")}, {0, 0, Float(1)}, {0, 1, Int(1)}, {3, 0, Int(1)}, {-1, 0, Int(1)}, {0, 3, Int(1)}, {0, -1, Int(1)}} {
		if err := tbl.Set(bad.row, bad.col, bad.v); err == nil {
			t.Errorf("Set(%d, %d, %v) accepted", bad.row, bad.col, bad.v)
		}
	}
	if after := fmt.Sprint(rowOf(tbl, 0), rowOf(tbl, 1), rowOf(tbl, 2)); after != before {
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
