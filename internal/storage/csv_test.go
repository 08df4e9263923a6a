package storage

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// serialReadCSV is the load ReadCSV fans out, one record at a time in
// one goroutine: the oracle its tables and errors must equal.
func serialReadCSV(name string, r io.Reader, schema Schema) (*Table, error) {
	cr := csv.NewReader(r)
	cr.TrimLeadingSpace = true
	header, err := cr.Read()
	if err == io.EOF {
		return nil, fmt.Errorf("storage: csv for %s has no header", name)
	}
	if err != nil {
		return nil, fmt.Errorf("storage: reading csv for %s: %w", name, err)
	}
	var ahead [][]string
	if schema == nil {
		for len(ahead) < inferRows {
			rec, err := cr.Read()
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, fmt.Errorf("storage: reading csv for %s: %w", name, err)
			}
			ahead = append(ahead, rec)
		}
		schema = make(Schema, len(header))
		samples := make([]string, len(ahead))
		for c, h := range header {
			for i, rec := range ahead {
				samples[i] = rec[c]
			}
			schema[c] = ColumnDef{Name: h, Kind: InferKind(samples)}
		}
	} else if len(schema) != len(header) {
		return nil, fmt.Errorf("storage: schema has %d columns, csv header has %d", len(schema), len(header))
	}
	t := NewTable(name, schema)
	cr.ReuseRecord = true
	for rn := 1; ; rn++ {
		var rec []string
		if rn <= len(ahead) {
			rec = ahead[rn-1]
		} else if rec, err = cr.Read(); err == io.EOF {
			for _, col := range t.cols {
				col.seal()
			}
			return t, nil
		} else if err != nil {
			return nil, fmt.Errorf("storage: reading csv for %s: %w", name, err)
		}
		for c, raw := range rec {
			v, err := ParseValue(raw, schema[c].Kind)
			if err != nil {
				return nil, fmt.Errorf("storage: row %d col %s: %w", rn, schema[c].Name, err)
			}
			t.cols[c].push(v, true)
		}
	}
}

// sameLoad reports how two loads of one input differ: in their error
// text, or in their schema and vectors — values, dictionaries, codes
// and NULL bitmaps — or "" when they do not.
func sameLoad(want *Table, wantErr error, got *Table, gotErr error) string {
	if wantErr != nil || gotErr != nil {
		if fmt.Sprint(wantErr) != fmt.Sprint(gotErr) {
			return fmt.Sprintf("error %v, want %v", gotErr, wantErr)
		}
		return ""
	}
	if !slices.Equal(want.schema, got.schema) || len(want.cols) != len(got.cols) {
		return fmt.Sprintf("schema %v, want %v", got.schema, want.schema)
	}
	for c, w := range want.cols {
		g := got.cols[c]
		if w.kind != g.kind || w.n != g.n || !slices.Equal(w.ints, g.ints) || !slices.Equal(w.floats, g.floats) ||
			!slices.Equal(w.dict, g.dict) || !slices.Equal(w.codes, g.codes) || !slices.Equal(w.bools, g.bools) ||
			!slices.Equal(w.nulls, g.nulls) {
			return fmt.Sprintf("column %s differs", want.schema[c].Name)
		}
	}
	return ""
}

// TestNonFiniteTextIsNoFloat: "NaN" and "inf" parse as floats in Go but
// have no JSON form, so a column holding one could not be committed and
// a node serving the file could not start. Such a column infers TEXT;
// under a FLOAT or INT schema the load fails naming the cell.
func TestNonFiniteTextIsNoFloat(t *testing.T) {
	for _, raw := range []string{"NaN", "nan", "inf", "+Inf", "-Infinity"} {
		text := "a,b\n1,2.0\n2," + raw + "\n"
		tbl, err := ReadCSV("x", strings.NewReader(text), nil)
		if err != nil {
			t.Fatalf("%s: %v", raw, err)
		}
		if kind := tbl.Schema()[1].Kind; kind != KindString || tbl.At(1, 1) != Str(raw) {
			t.Errorf("%s: column b is %s holding %v, want TEXT holding the text", raw, kind, tbl.At(1, 1))
		}
		for kind, noun := range map[Kind]string{KindFloat: "a FLOAT", KindInt: "an INT"} {
			schema := Schema{{Name: "a", Kind: KindInt}, {Name: "b", Kind: kind}}
			want := fmt.Sprintf("storage: row 2 col b: storage: %q is not %s", raw, noun)
			if _, err := ReadCSV("x", strings.NewReader(text), schema); fmt.Sprint(err) != want {
				t.Errorf("%s as %s: %v, want %s", raw, kind, err, want)
			}
		}
	}
}

// csvProcWidths are the GOMAXPROCS values the load and commit sweeps
// run: 1 loads inline, the others with that many column workers, at
// most one per column.
var csvProcWidths = []int{1, 2, 4, 8}

// setProcs sets GOMAXPROCS for the rest of the test and restores the
// value it found when the test ends.
func setProcs(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// editRows returns the orders CSV with data rows replaced: row n (from
// 1) becomes edits[n].
func editRows(text []byte, edits map[int]string) []byte {
	lines := strings.SplitAfter(string(text), "\n")
	for n, line := range edits {
		lines[n] = line + "\n"
	}
	return []byte(strings.Join(lines, ""))
}

// TestReadCSVWidthSweep loads the orders shape, and orders with bad
// cells, at every width: each load equals the serial oracle's — the
// same vectors, or the same first error — whatever the width.
func TestReadCSVWidthSweep(t *testing.T) {
	orders := ordersCSV(ordersRows)
	cases := []struct {
		name   string
		text   []byte
		schema Schema
		want   string // the first error; "" for none
	}{
		{"orders", orders, nil, ""},
		{"orders under a schema", orders, Schema{{Name: "order_id", Kind: KindInt}, {Name: "customer", Kind: KindString},
			{Name: "region", Kind: KindString}, {Name: "quantity", Kind: KindFloat}, {Name: "amount", Kind: KindFloat}}, ""},
		{"bad cells in two columns of different batches", editRows(orders, map[int]string{
			5000: "5000,c0001,north,12,x", 3000: "3000,c0001,north,y,1.50"}),
			nil, `storage: row 3000 col quantity: storage: "y" is not an INT`},
		{"bad cells in two columns of one batch, the later column first", editRows(orders, map[int]string{
			2100: "2100,c0001,north,y,1.50", 2050: "2050,c0001,north,12,x"}),
			nil, `storage: row 2050 col amount: storage: "x" is not a FLOAT`},
		{"bad cells in two columns of one row", editRows(orders, map[int]string{4100: "z,c0001,north,y,1.50"}),
			nil, `storage: row 4100 col order_id: storage: "z" is not an INT`},
		{"a ragged row", editRows(orders, map[int]string{4000: "4000,c0001,north,12,1.50,extra"}),
			nil, "storage: reading csv for orders: record on line 4001: wrong number of fields"},
		{"a bad cell after a ragged row", editRows(orders, map[int]string{4000: "4000,c0001,north,12", 4001: "x,c0001,north,12,1.50"}),
			nil, "storage: reading csv for orders: record on line 4001: wrong number of fields"},
		{"a bad cell before a ragged row", editRows(orders, map[int]string{4000: "4000,c0001,north,12", 3999: "3999,c0001,north,12,x"}),
			nil, `storage: row 3999 col amount: storage: "x" is not a FLOAT`},
		{"a bad cell before a syntax error", editRows(orders, map[int]string{
			3001: `3001,c0001,no"rth,12,1.50`, 2999: "2999,c0001,north,12,1.5.0"}),
			nil, `storage: row 2999 col amount: storage: "1.5.0" is not a FLOAT`},
		{"a syntax error", editRows(orders, map[int]string{3001: `3001,c0001,no"rth,12,1.50`}),
			nil, `storage: reading csv for orders: parse error on line 3002, column 14: bare " in non-quoted-field`},
	}
	for _, c := range cases {
		want, wantErr := serialReadCSV("orders", bytes.NewReader(c.text), c.schema)
		if (wantErr == nil) != (c.want == "") || wantErr != nil && wantErr.Error() != c.want {
			t.Fatalf("%s: the oracle fails with %v, want %s", c.name, wantErr, c.want)
		}
		for _, procs := range csvProcWidths {
			setProcs(t, procs)
			got, err := ReadCSV("orders", bytes.NewReader(c.text), c.schema)
			if diff := sameLoad(want, wantErr, got, err); diff != "" {
				t.Errorf("%s at GOMAXPROCS %d: %s", c.name, procs, diff)
			}
			if err == nil {
				requireSealed(t, got)
			}
		}
	}
}

// csvSeeds are FuzzReadCSV's seed inputs: text and a schema spelled as
// one kind digit per column ("" infers the kinds).
var csvSeeds = []struct{ text, kinds string }{
	{"a,b\n1,2.5\n2,NaN\n", ""},
	{"a,b\n1,2.5\n2,NaN\n", "12"},
	{"id,name,score,ok\n1,ada,2.5,true\n2,,3,false\n3,cid,,\n4,\"d,e\",-1e3,TRUE\n5, bob ,7,f\n", ""},
	{"id,name,score,ok\n1,ada,2.5,true\n2,,3,false\n3,cid,,\n4,\"d,e\",-1e3,TRUE\n5, bob ,7,f\n", "1234"},
	{"n\n1\n2\nx\n4\n", "1"},
	{"a,b\n1,2\n3\n4,5\n", ""},
	{"a,b\n1,x\n2,y\n3,\"un\"closed\n", "13"},
	{"a,b,c\nx,1,1\n1,y,1\n1,1,z\n", "111"},
	{"a\n", ""},
	{"", ""},
	{"a,b\n1,2\n", "1"},
	{"a,b\n3.0,inf\n4.5,-Infinity\n", "12"},
}

// FuzzReadCSV loads arbitrary text, under an inferred or a given
// schema, with batches of two records and three column workers, and
// requires the serial oracle's table or error text.
func FuzzReadCSV(f *testing.F) {
	for _, s := range csvSeeds {
		f.Add([]byte(s.text), s.kinds)
	}
	f.Fuzz(func(t *testing.T, text []byte, kinds string) {
		var schema Schema
		for i, k := range []byte(kinds) {
			schema = append(schema, ColumnDef{Name: fmt.Sprint("c", i), Kind: Kind(k % 5)})
		}
		want, wantErr := serialReadCSV("f", bytes.NewReader(text), schema)
		for _, workers := range []int{1, 3} {
			got, err := readCSV("f", bytes.NewReader(text), schema, 2, workers)
			if diff := sameLoad(want, wantErr, got, err); diff != "" {
				t.Fatalf("%d workers: %s", workers, diff)
			}
		}
	})
}
