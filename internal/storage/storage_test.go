package storage

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func TestValueConstructorsAndString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null(), "NULL"},
		{Int(42), "42"},
		{Float(2.5), "2.5"},
		{Str("hi"), "hi"},
		{Bool(true), "true"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("%v.String() = %q, want %q", c.v.Kind, got, c.want)
		}
	}
}

func TestValueAsFloat(t *testing.T) {
	if f, ok := Int(3).AsFloat(); !ok || f != 3 {
		t.Error("int coercion failed")
	}
	if f, ok := Str("2.5").AsFloat(); !ok || f != 2.5 {
		t.Error("numeric string coercion failed")
	}
	if _, ok := Str("abc").AsFloat(); ok {
		t.Error("non-numeric string must not coerce")
	}
	if _, ok := Null().AsFloat(); ok {
		t.Error("NULL must not coerce")
	}
	if f, ok := Bool(true).AsFloat(); !ok || f != 1 {
		t.Error("bool coercion failed")
	}
}

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Float(2.0), 0},
		{Float(3.5), Int(3), 1},
		{Str("a"), Str("b"), -1},
		{Bool(false), Bool(true), -1},
		{Null(), Int(0), -1},
		{Null(), Null(), 0},
		{Int(5), Null(), 1},
	}
	for _, c := range cases {
		got, err := c.a.Compare(c.b)
		if err != nil {
			t.Fatalf("Compare(%v,%v): %v", c.a, c.b, err)
		}
		if got != c.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	if _, err := Str("a").Compare(Int(1)); err == nil {
		t.Error("string vs int must error")
	}
	if _, err := Bool(true).Compare(Float(1)); err == nil {
		t.Error("bool vs float must error")
	}
}

func TestParseValue(t *testing.T) {
	v, err := ParseValue("7", KindInt)
	if err != nil || v.I != 7 {
		t.Errorf("int parse: %v %v", v, err)
	}
	v, err = ParseValue("3.0", KindInt)
	if err != nil || v.I != 3 {
		t.Errorf("float-as-int parse: %v %v", v, err)
	}
	if _, err := ParseValue("3.5", KindInt); err == nil {
		t.Error("3.5 must not parse as INT")
	}
	v, err = ParseValue("", KindFloat)
	if err != nil || !v.IsNull() {
		t.Error("empty must parse to NULL")
	}
	v, err = ParseValue("TRUE", KindBool)
	if err != nil || !v.B {
		t.Error("bool parse failed")
	}
	if _, err := ParseValue("zz", KindFloat); err == nil {
		t.Error("bad float must error")
	}
}

func TestInferKind(t *testing.T) {
	cases := []struct {
		in   []string
		want Kind
	}{
		{[]string{"1", "2", "3"}, KindInt},
		{[]string{"1", "2.5"}, KindFloat},
		{[]string{"true", "false"}, KindBool},
		{[]string{"a", "1"}, KindString},
		{[]string{"", ""}, KindString},
		{[]string{"1", "", "2"}, KindInt},
	}
	for _, c := range cases {
		if got := InferKind(c.in); got != c.want {
			t.Errorf("InferKind(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func testTable(t *testing.T) *Table {
	t.Helper()
	tbl := NewTable("emp", Schema{
		{Name: "id", Kind: KindInt},
		{Name: "name", Kind: KindString},
		{Name: "salary", Kind: KindFloat},
	})
	tbl.MustAppendRow(Int(1), Str("ada"), Float(100.5))
	tbl.MustAppendRow(Int(2), Str("bob"), Float(80.25))
	tbl.MustAppendRow(Int(3), Str("cid"), Null())
	return tbl
}

func TestTableBasics(t *testing.T) {
	tbl := testTable(t)
	if tbl.NumRows() != 3 || tbl.NumCols() != 3 {
		t.Fatalf("shape = %dx%d", tbl.NumRows(), tbl.NumCols())
	}
	if got := tbl.At(1, 1); got.S != "bob" {
		t.Errorf("At(1,1) = %v", got)
	}
	row := rowOf(tbl, 0)
	if row[0].I != 1 || row[1].S != "ada" {
		t.Errorf("Row(0) = %v", row)
	}
	if _, _, err := tbl.FloatColumn("nope"); err == nil {
		t.Error("missing column must error")
	}
}

func TestTableAppendValidation(t *testing.T) {
	tbl := testTable(t)
	if err := tbl.AppendRow([]Value{Int(4)}); err == nil {
		t.Error("short row must error")
	}
	if err := tbl.AppendRow([]Value{Str("x"), Str("y"), Float(1)}); err == nil {
		t.Error("kind mismatch must error")
	}
	// INT widens into FLOAT column.
	if err := tbl.AppendRow([]Value{Int(4), Str("dee"), Int(70)}); err != nil {
		t.Errorf("int->float widening failed: %v", err)
	}
	if got := tbl.At(3, 2); got.Kind != KindFloat || got.F != 70 {
		t.Errorf("widened value = %v", got)
	}
}

// vectorOf builds a vector of the given kind from vals.
func vectorOf(t *testing.T, kind Kind, vals ...Value) *Vector {
	t.Helper()
	col := NewVector(kind, len(vals))
	for _, v := range vals {
		if err := col.Append(v); err != nil {
			t.Fatal(err)
		}
	}
	return col
}

// TestTableFromColumns: the columnar constructor accepts and refuses
// what AppendRow does, and takes a vector of the right kind as it is.
func TestTableFromColumns(t *testing.T) {
	schema := testTable(t).Schema()
	ids := vectorOf(t, KindInt, Int(1), Null())
	names := NewVector(KindString, 8) // room to spare, which the table cuts
	if names.Append(Str("ada")) != nil || names.Append(Null()) != nil {
		t.Fatal("append")
	}
	tbl, err := TableFromColumns("people", schema, []*Vector{ids, names, vectorOf(t, KindInt, Int(70), Null())})
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 2 || tbl.At(0, 2) != Float(70) || !tbl.At(1, 2).IsNull() || tbl.Vector(0) != ids {
		t.Errorf("rows %d, widened cell %v, id column copied: %v", tbl.NumRows(), tbl.At(0, 2), tbl.Vector(0) != ids)
	}
	requireSealed(t, tbl)
	if err := tbl.AppendRow([]Value{Int(3), Str("cy"), Float(1)}); err != nil || tbl.NumRows() != 3 {
		t.Errorf("append to a table built from columns: %v", err)
	}
	allNull, err := TableFromColumns("people", schema, []*Vector{vectorOf(t, KindNull, Null()), vectorOf(t, KindNull, Null()), vectorOf(t, KindNull, Null())})
	if err != nil || allNull.NumRows() != 1 || allNull.Vector(1).Kind() != KindString || !allNull.At(0, 1).IsNull() {
		t.Errorf("all-NULL vectors under a typed schema: %v", err)
	}
	for name, cols := range map[string][]*Vector{
		"a column short of the schema": {vectorOf(t, KindInt, Int(1)), vectorOf(t, KindString, Str("a"))},
		"columns of unequal length":    {vectorOf(t, KindInt, Int(1)), vectorOf(t, KindString, Str("a"), Str("b")), vectorOf(t, KindFloat, Float(1))},
		"a column of another kind":     {vectorOf(t, KindString, Str("1")), vectorOf(t, KindString, Str("a")), vectorOf(t, KindFloat, Float(1))},
		"a float in an int column":     {vectorOf(t, KindFloat, Float(1)), vectorOf(t, KindString, Str("a")), vectorOf(t, KindFloat, Float(1))},
	} {
		if _, err := TableFromColumns("people", schema, cols); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if empty, err := TableFromColumns("none", nil, nil); err != nil || empty.NumRows() != 0 {
		t.Errorf("no columns: %v", err)
	}
}

func TestFloatColumnSkipsNulls(t *testing.T) {
	tbl := testTable(t)
	vals, rows, err := tbl.FloatColumn("salary")
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 2 || vals[0] != 100.5 || vals[1] != 80.25 {
		t.Errorf("vals = %v", vals)
	}
	if len(rows) != 2 || rows[0] != 0 || rows[1] != 1 {
		t.Errorf("rows = %v", rows)
	}
}

func TestDistinctStrings(t *testing.T) {
	tbl := testTable(t)
	tbl.MustAppendRow(Int(4), Str("ada"), Float(1))
	got, err := tbl.DistinctStrings("name")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"ada", "bob", "cid"}
	if len(got) != len(want) {
		t.Fatalf("distinct = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("distinct[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestDatabase(t *testing.T) {
	db := NewDatabase("test")
	db.Put(testTable(t))
	got, err := db.Get("EMP") // case-insensitive
	if err != nil || got.Name != "emp" {
		t.Fatalf("Get: %v %v", got, err)
	}
	if _, err := db.Get("missing"); err == nil {
		t.Error("missing table must error")
	}
	if tables := db.Tables(); len(tables) != 1 || tables[0].Name != "emp" {
		t.Errorf("tables = %v", tables)
	}
	// Replacement keeps order and count.
	db.Put(NewTable("emp", Schema{{Name: "x", Kind: KindInt}}))
	if len(db.Tables()) != 1 {
		t.Error("replace must not duplicate")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tbl := testTable(t)
	var buf bytes.Buffer
	if err := WriteCSV(tbl, &buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV("emp2", &buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != tbl.NumRows() || got.NumCols() != tbl.NumCols() {
		t.Fatalf("round-trip shape = %dx%d", got.NumRows(), got.NumCols())
	}
	// Inference should give INT, TEXT, FLOAT.
	wantKinds := []Kind{KindInt, KindString, KindFloat}
	for i, k := range wantKinds {
		if got.Schema()[i].Kind != k {
			t.Errorf("inferred kind[%d] = %v, want %v", i, got.Schema()[i].Kind, k)
		}
	}
	if !got.At(0, 0).Equal(Int(1)) || !got.At(2, 2).IsNull() {
		t.Error("round-trip values wrong")
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV("x", strings.NewReader(""), nil); err == nil {
		t.Error("empty csv must error")
	}
	bad := "id,name\n1,a,extra\n"
	if _, err := ReadCSV("x", strings.NewReader(bad), nil); err == nil {
		t.Error("ragged csv must error")
	}
	mismatch := "a,b\n1,2\n"
	if _, err := ReadCSV("x", strings.NewReader(mismatch), Schema{{Name: "a", Kind: KindInt}}); err == nil {
		t.Error("schema width mismatch must error")
	}
	badval := "n\nxyz\n"
	if _, err := ReadCSV("x", strings.NewReader(badval), Schema{{Name: "n", Kind: KindInt}}); err == nil {
		t.Error("unparseable value must error")
	}
}

// Property: Compare is antisymmetric for comparable values.
func TestCompareAntisymmetryProperty(t *testing.T) {
	f := func(a, b int64) bool {
		va, vb := Int(a), Int(b)
		x, err1 := va.Compare(vb)
		y, err2 := vb.Compare(va)
		return err1 == nil && err2 == nil && x == -y
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: ParseValue(v.String(), kind) round-trips ints and bools.
func TestParseRoundTripProperty(t *testing.T) {
	f := func(i int64, b bool) bool {
		vi, err := ParseValue(Int(i).String(), KindInt)
		if err != nil || vi.I != i {
			return false
		}
		vb, err := ParseValue(Bool(b).String(), KindBool)
		return err == nil && vb.B == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// rowOf materializes row i of t as a fresh slice.
func rowOf(t *Table, i int) []Value {
	out := make([]Value, t.NumCols())
	for c := range out {
		out[c] = t.At(i, c)
	}
	return out
}
