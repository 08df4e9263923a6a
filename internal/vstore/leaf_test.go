package vstore

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"github.com/reliable-cda/cda/internal/storage"
)

// sameValue is == on Values with floats compared by bits, so that a
// lost sign of zero is a difference.
func sameValue(a, b storage.Value) bool {
	return a == b && math.Float64bits(a.F) == math.Float64bits(b.F)
}

func requireSameValues(t testing.TB, what string, got, want []storage.Value) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if !sameValue(got[i], want[i]) {
			t.Fatalf("%s: value %d = %#v, want %#v", what, i, got[i], want[i])
		}
	}
}

// tableNames lists db's table names in registration order.
func tableNames(db *storage.Database) []string {
	var out []string
	for _, t := range db.Tables() {
		out = append(out, t.Name)
	}
	return out
}

// requireSameDB requires got to hold want's tables cell for cell.
func requireSameDB(t testing.TB, got, want *storage.Database) {
	t.Helper()
	if fmt.Sprint(tableNames(got)) != fmt.Sprint(tableNames(want)) {
		t.Fatalf("tables %v, want %v", tableNames(got), tableNames(want))
	}
	for _, wt := range want.Tables() {
		gt, err := got.Get(wt.Name)
		if err != nil {
			t.Fatal(err)
		}
		if gt.Description != wt.Description || fmt.Sprint(gt.Schema()) != fmt.Sprint(wt.Schema()) {
			t.Fatalf("table %s: schema %v %q, want %v %q", wt.Name, gt.Schema(), gt.Description, wt.Schema(), wt.Description)
		}
		for c := range wt.Schema() {
			requireSameValues(t, wt.Name+"."+wt.Schema()[c].Name, gt.Column(c), wt.Column(c))
		}
	}
}

// values returns col's rows as Values.
func values(col *storage.Vector) []storage.Value {
	out := make([]storage.Value, col.Len())
	for r := range out {
		out[r] = col.At(r)
	}
	return out
}

func mustVector(t testing.TB, kind storage.Kind, vals []storage.Value) *storage.Vector {
	t.Helper()
	col, err := vectorOf(kind, vals)
	if err != nil {
		t.Fatalf("%s vector of %#v: %v", kind, vals, err)
	}
	return col
}

func mustEncode(t testing.TB, col *storage.Vector, lo, hi int) []byte {
	t.Helper()
	data, err := encodeLeaf(col, lo, hi)
	if err != nil {
		t.Fatalf("encode %#v: %v", values(col)[lo:hi], err)
	}
	return data
}

func mustPlain(t testing.TB, col *storage.Vector, lo, hi int) []byte {
	t.Helper()
	data, err := plainLeaf(col, lo, hi)
	if err != nil {
		t.Fatalf("plain form of %#v: %v", values(col)[lo:hi], err)
	}
	return data
}

// packBitByBit is the packed text of offs in w bits each, set one bit at
// a time: the oracle for appendPacked.
func packBitByBit(offs []uint64, w int) string {
	raw := make([]byte, (len(offs)*w+7)/8)
	for i, v := range offs {
		for b := 0; b < w; b++ {
			if v>>b&1 == 1 {
				at := i*w + b
				raw[at/8] |= 1 << (at % 8)
			}
		}
	}
	return base64.RawStdEncoding.EncodeToString(raw)
}

// offsetsOf returns the least of a non-empty ks, the offsets from it,
// and the fewest bits that hold the largest.
func offsetsOf(ks []int64) (lo int64, offs []uint64, w int) {
	lo = slices.Min(ks)
	for _, k := range ks {
		offs = append(offs, uint64(k-lo))
	}
	for w < 64 && slices.Max(offs)>>w != 0 {
		w++
	}
	return lo, offs, w
}

// scaleOf is the smallest s ≤ 9 at which every value is float64(k)/10^s
// bit for bit, k being the value times 10^s rounded and |k| ≤ 2^53, with
// those k; ok is false when none is.
func scaleOf(vals []float64) (s int, ks []int64, ok bool) {
	for s = 0; s <= 9; s++ {
		ks = ks[:0]
		for _, f := range vals {
			k := math.Round(f * math.Pow10(s))
			if !(math.Abs(k) <= 1<<53) || math.Float64bits(float64(int64(k))/math.Pow10(s)) != math.Float64bits(f) {
				break
			}
			ks = append(ks, int64(k))
		}
		if len(ks) == len(vals) {
			return s, ks, true
		}
	}
	return 0, nil, false
}

// formsOf is every form the choice rule weighs for all of col, in its
// tie order — plain, runs, dictionary, packed — each written through
// json.Marshal: the oracle for encodeLeaf. A vector with a NULL, and a
// BOOL one, has only the plain form.
func formsOf(t testing.TB, col *storage.Vector) [][]byte {
	t.Helper()
	forms := [][]byte{mustPlain(t, col, 0, col.Len())}
	add := func(form any) {
		data, err := json.Marshal(form)
		if err != nil {
			t.Fatal(err)
		}
		forms = append(forms, data)
	}
	if col.Len() > 0 && col.NullCount(0, col.Len()) == 0 {
		switch col.Kind() {
		case storage.KindInt:
			var dr []int64
			var prev int64
			for _, v := range col.Ints() {
				if d := v - prev; len(dr) > 0 && dr[len(dr)-2] == d {
					dr[len(dr)-1]++
				} else {
					dr = append(dr, d, 1)
				}
				prev = v
			}
			lo, offs, w := offsetsOf(col.Ints())
			add(struct {
				T  storage.Kind `json:"t"`
				DR []int64      `json:"dr"`
			}{storage.KindInt, dr})
			add(struct {
				T  storage.Kind `json:"t"`
				Lo int64        `json:"lo"`
				W  int          `json:"w"`
				P  string       `json:"p"`
			}{storage.KindInt, lo, w, packBitByBit(offs, w)})
		case storage.KindFloat:
			if s, ks, ok := scaleOf(col.Floats()); ok {
				lo, offs, w := offsetsOf(ks)
				add(struct {
					T  storage.Kind `json:"t"`
					Lo int64        `json:"lo"`
					W  int          `json:"w"`
					S  int          `json:"s"`
					P  string       `json:"p"`
				}{storage.KindFloat, lo, w, s, packBitByBit(offs, w)})
			}
		case storage.KindString:
			at := map[string]uint64{}
			var dict []string
			var ix []uint64
			for _, v := range values(col) {
				s := v.S
				k, ok := at[s]
				if !ok {
					k, at[s], dict = uint64(len(dict)), uint64(len(dict)), append(dict, s)
				}
				ix = append(ix, k)
			}
			_, _, w := offsetsOf([]int64{0, int64(len(dict) - 1)})
			add(struct {
				T    storage.Kind `json:"t"`
				Dict []string     `json:"dict"`
				W    int          `json:"w"`
				P    string       `json:"p"`
			}{storage.KindString, dict, w, packBitByBit(ix, w)})
		}
	}
	return forms
}

// requireRoundTrip encodes all of col, requires the form the choice rule
// picks — the shortest of the forms its kind has, the earliest in the
// tie order on a tie — and requires the decode to return col's values
// and to encode to the same bytes again.
func requireRoundTrip(t testing.TB, col *storage.Vector) []byte {
	t.Helper()
	data := mustEncode(t, col, 0, col.Len())
	var want []byte
	for _, form := range formsOf(t, col) {
		if want == nil || len(form) < len(want) {
			want = form
		}
	}
	if !bytes.Equal(data, want) {
		t.Fatalf("encoded %#v as %s, want %s", values(col), data, want)
	}
	got, err := decodeLeaf(data, col.Len())
	if err != nil {
		t.Fatalf("decode %s: %v", data, err)
	}
	requireSameValues(t, string(data), values(got), values(col))
	if again := mustEncode(t, got, 0, got.Len()); !bytes.Equal(again, data) {
		t.Fatalf("re-encoding the decode of %s gave %s", data, again)
	}
	return data
}

// randomLeaf draws a leaf of one kind with NULLs, edge values first.
func randomLeaf(rng *rand.Rand, kind storage.Kind) []storage.Value {
	ints := []int64{math.MinInt64, math.MaxInt64, 0, -1, 1 << 53}
	floats := []float64{math.Copysign(0, -1), 0, 1e-7, 9.9e-7, 1e21, 9.9e20, math.SmallestNonzeroFloat64, math.MaxFloat64}
	alphabet := []rune("ab \"\\/<>&\x00\x01\t\n\r\x1f\x7fé東🙂 ")
	col := make([]storage.Value, 1+rng.Intn(40))
	for i := range col {
		if rng.Intn(5) == 0 {
			continue
		}
		switch kind {
		case storage.KindInt:
			col[i] = storage.Int(int64(rng.Uint64()))
			if rng.Intn(3) == 0 {
				col[i] = storage.Int(ints[rng.Intn(len(ints))])
			}
		case storage.KindFloat:
			col[i] = storage.Float(math.Float64frombits(rng.Uint64()))
			if rng.Intn(3) == 0 || col[i] != col[i] || math.IsInf(col[i].F, 0) {
				col[i] = storage.Float(floats[rng.Intn(len(floats))])
			}
		case storage.KindString:
			rs := make([]rune, rng.Intn(12))
			for j := range rs {
				rs[j] = alphabet[rng.Intn(len(alphabet))]
			}
			col[i] = storage.Str(string(rs))
		case storage.KindBool:
			col[i] = storage.Bool(rng.Intn(2) == 0)
		}
	}
	return col
}

// structuredLeaf draws the spans the runs and dictionary forms are for:
// INT runs of equal deltas, extremes among them, or TEXT drawn from a
// small dictionary — and now and then one NULL, which keeps it plain.
func structuredLeaf(rng *rand.Rand, kind storage.Kind) []storage.Value {
	deltas := []int64{0, 1, -1, 7, math.MaxInt64, math.MinInt64, 1 << 62}
	words := []string{"north", "", "é東", "<&>", `"\`, "a b", "tab\there"}[:1+rng.Intn(7)]
	col := make([]storage.Value, 1+rng.Intn(300))
	acc, d := int64(rng.Uint64()), int64(0)
	for i := range col {
		if kind == storage.KindInt {
			if rng.Intn(6) == 0 {
				d = deltas[rng.Intn(len(deltas))]
			}
			acc += d
			col[i] = storage.Int(acc)
		} else {
			col[i] = storage.Str(words[rng.Intn(len(words))])
		}
	}
	if rng.Intn(4) == 0 {
		col[rng.Intn(len(col))] = storage.Null()
	}
	return col
}

// TestLeafRoundTrip: every span of a vector takes the form the choice
// rule picks and comes back bit for bit, its plain text written from the
// slice itself or through pointers; a legacy leaf reads as the vector it
// can be or not at all; what JSON cannot carry behaves as it did before
// the typed form.
func TestLeafRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(20261002))
	for i := 0; i < 400; i++ {
		kind := storage.Kind(i % 5) // KindNull draws an all-NULL leaf
		vals := randomLeaf(rng, kind)
		data := requireRoundTrip(t, mustVector(t, kind, vals))
		if kind == storage.KindNull && !strings.HasPrefix(string(data), `{"t":0,`) {
			t.Fatalf("all-NULL leaf = %s", data)
		}
		// A span without a NULL is marshalled as the slice it is, one
		// with a NULL through pointers: a value's text must not depend
		// on which.
		var dense []storage.Value
		for _, v := range vals {
			if !v.IsNull() {
				dense = append(dense, v)
			}
		}
		if len(dense) == 0 {
			continue
		}
		col := mustVector(t, kind, append(dense, storage.Null()))
		direct, viaPointers := mustPlain(t, col, 0, len(dense)), mustEncode(t, col, 0, len(dense)+1)
		if want := strings.TrimSuffix(string(direct), "]}") + ",null]}"; string(viaPointers) != want {
			t.Fatalf("span with a trailing NULL = %s, without it %s", viaPointers, direct)
		}
	}
	for i := 0; i < 400; i++ {
		kind := []storage.Kind{storage.KindInt, storage.KindString}[i%2]
		requireRoundTrip(t, mustVector(t, kind, structuredLeaf(rng, kind)))
	}
	requireRoundTrip(t, mustVector(t, storage.KindInt, nil))

	// Equal spans encode equal, whatever vector they sit in.
	a := []storage.Value{storage.Int(1), storage.Null(), storage.Int(3), storage.Int(4)}
	b := mustVector(t, storage.KindInt, append(append([]storage.Value{storage.Int(99)}, a...), storage.Int(5)))
	if x, y := requireRoundTrip(t, mustVector(t, storage.KindInt, a)), mustEncode(t, b, 1, 5); !bytes.Equal(x, y) {
		t.Fatalf("equal spans encoded as %s and %s", x, y)
	}
	// Runs start from 0, not from the row before the span.
	run := []storage.Value{storage.Int(5), storage.Int(6), storage.Int(7), storage.Int(8), storage.Int(9)}
	c := mustVector(t, storage.KindInt, append(append([]storage.Value{storage.Int(99)}, run...), storage.Int(3)))
	if x, y := requireRoundTrip(t, mustVector(t, storage.KindInt, run)), mustEncode(t, c, 1, 6); !bytes.Equal(x, y) || !strings.Contains(string(x), `"dr"`) {
		t.Fatalf("equal NULL-free spans encoded as %s and %s, want runs", x, y)
	}
	nulls := make([]storage.Value, 3)
	if x, y := requireRoundTrip(t, mustVector(t, storage.KindNull, nulls)), requireRoundTrip(t, mustVector(t, storage.KindFloat, nulls)); !bytes.Equal(x, y) {
		t.Fatalf("all-NULL spans encoded as %s and %s", x, y)
	}

	// The struct-array form older stores wrote is refused, whatever it
	// holds.
	for name, leaf := range map[string][]storage.Value{
		"one kind":    a,
		"mixed kinds": {storage.Int(1), storage.Str("one")},
	} {
		data, err := json.Marshal(leaf)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := decodeLeaf(data, len(leaf)); err == nil {
			t.Errorf("%s: decoded %s as %#v", name, data, values(got))
		}
	}

	// Invalid UTF-8 becomes U+FFFD, as json.Marshal always made it; the
	// replaced string is then stable.
	invalid := []storage.Value{storage.Str("a\xffb\xc3")}
	data := mustEncode(t, mustVector(t, storage.KindString, invalid), 0, 1)
	got, err := decodeLeaf(data, 1)
	if err != nil || got.At(0) != storage.Str("a\ufffdb\ufffd") {
		t.Fatalf("invalid UTF-8 came back from %s as %#v, %v", data, got, err)
	}
	requireRoundTrip(t, got)

	// NaN and ±Inf have no JSON form: the encode fails, as it always
	// did, from the slice and through pointers alike.
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		col := mustVector(t, storage.KindFloat, []storage.Value{storage.Float(1), storage.Float(f), storage.Null()})
		for _, hi := range []int{2, 3} {
			if data, err := encodeLeaf(col, 0, hi); err == nil {
				t.Fatalf("encoded %v as %s", f, data)
			}
		}
	}
	db := demoDB(300)
	tab, err := db.Get("metrics")
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Set(299, 2, storage.Float(math.NaN())); err != nil {
		t.Fatal(err)
	}
	_, err = NewMemory().CommitDatabase("db/main", db, 0)
	if err == nil || !strings.Contains(err.Error(), "metrics[2][256:300]") {
		t.Fatalf("committing a NaN: %v, want an error naming metrics[2][256:300]", err)
	}
}

// TestLeafForms pins the text of each form on the spans it is for, and
// the rule between them: the shortest text, ties going to plain, runs,
// dictionary and packed in that order, and only the plain one for a span
// with a NULL.
func TestLeafForms(t *testing.T) {
	ints := func(vs ...int64) *storage.Vector {
		vals := make([]storage.Value, len(vs))
		for i, v := range vs {
			vals[i] = storage.Int(v)
		}
		return mustVector(t, storage.KindInt, vals)
	}
	floats := func(vs ...float64) *storage.Vector {
		vals := make([]storage.Value, len(vs))
		for i, v := range vs {
			vals[i] = storage.Float(v)
		}
		return mustVector(t, storage.KindFloat, vals)
	}
	tenth := 0.1 // a variable, so that tenth+0.2 is float64 arithmetic
	strs := func(vs ...string) *storage.Vector {
		vals := make([]storage.Value, len(vs))
		for i, v := range vs {
			vals[i] = storage.Str(v)
		}
		return mustVector(t, storage.KindString, vals)
	}
	seq := make([]int64, 256)
	for i := range seq {
		seq[i] = int64(i + 1)
	}
	withNull := mustVector(t, storage.KindInt, []storage.Value{storage.Int(1), storage.Int(2), storage.Null(), storage.Int(4)})
	for _, c := range []struct {
		col  *storage.Vector
		want string
	}{
		{ints(seq...), `{"t":1,"dr":[1,256]}`},
		{ints(42, 42, 42, 42), `{"t":1,"dr":[42,1,0,3]}`},
		{ints(math.MaxInt64, math.MinInt64, math.MinInt64, math.MaxInt64, math.MaxInt64),
			`{"t":1,"dr":[9223372036854775807,1,1,1,0,1,-1,1,0,1]}`},
		{ints(10, 20), `{"t":1,"v":[10,20]}`}, // 4 + "v" against 4 + "dr": a tie
		{ints(0, 0, 0), `{"t":1,"dr":[0,3]}`},
		{withNull, `{"t":1,"v":[1,2,null,4]}`},
		{ints(3, 1, 4, 1, 5, 0, 2, 6, 5, 3), `{"t":1,"v":[3,1,4,1,5,0,2,6,5,3]}`}, // 33 plain and packed: a tie
		{ints(3, 1, 4, 1, 5, 0, 2, 6, 5, 3, 5), `{"t":1,"lo":0,"w":3,"p":"C1PIXQE"}`},
		{ints(19, 21, 23, 22, 21, 22, 23), `{"t":1,"dr":[19,1,2,2,-1,2,1,2]}`}, // 32 runs and packed: a tie
		{floats(10.25, 10.5, 10.75, 10.99, 10.01, 10.4), `{"t":2,"lo":1001,"w":7,"s":2,"p":"mJhSDDgB"}`},
		{floats(20, 20.6, 15.5, 6.3, 17.8, 19.1, 36.1), `{"t":2,"v":[20,20.6,15.5,6.3,17.8,19.1,36.1]}`}, // 46 plain and packed: a tie
		{floats(1e-9, 2e-9, 3e-9, 1e-9, 2e-9, 3e-9), `{"t":2,"lo":1,"w":2,"s":9,"p":"JAk"}`},
		{floats(10.25, 10.5, 10.75, 10.99, 10.01, math.Copysign(0, -1)), `{"t":2,"v":[10.25,10.5,10.75,10.99,10.01,-0]}`},
		{floats(10.25, 10.5, 10.75, 10.99, 10.01, tenth+0.2), `{"t":2,"v":[10.25,10.5,10.75,10.99,10.01,0.30000000000000004]}`},
		{floats(10.25, 10.5, 10.75, 10.99, 10.01, 1e-10), `{"t":2,"v":[10.25,10.5,10.75,10.99,10.01,1e-10]}`},
		{strs("east", "west", "east", "east", "west"), `{"t":3,"dict":["east","west"],"w":1,"p":"Eg"}`},
		{strs("<a>", "<a>", "<a>"), `{"t":3,"dict":["\u003ca\u003e"],"w":0,"p":""}`},
		{strs("ccc", "bb", "bb", "ccc", "a", "a", "a"), `{"t":3,"v":["ccc","bb","bb","ccc","a","a","a"]}`}, // 43 plain and dictionary: a tie
		{strs("a", "b", "a"), `{"t":3,"v":["a","b","a"]}`},
		{strs(`"\`, `"\`, "\u2028"), `{"t":3,"v":["\"\\","\"\\","\u2028"]}`},
	} {
		if got := requireRoundTrip(t, c.col); string(got) != c.want {
			t.Errorf("%v encodes as %s, want %s", values(c.col), got, c.want)
		}
	}

	// A dictionary leaf's dictionary becomes the vector's, whose rows
	// share its strings.
	col, err := decodeLeaf([]byte(`{"t":3,"dict":["lakeside","border"],"w":1,"p":"Ag"}`), 4)
	if err != nil {
		t.Fatal(err)
	}
	dict := col.Dict()
	if fmt.Sprint(dict, col.Codes()) != "[lakeside border] [0 1 0 0]" {
		t.Fatalf("decoded to dictionary %q, codes %v", dict, col.Codes())
	}
	for r, k := range []int{0, 1, 0, 0} {
		if unsafe.StringData(col.At(r).S) != unsafe.StringData(dict[k]) {
			t.Fatalf("row %d holds its own copy of %q", r, dict[k])
		}
	}

	// A forged dictionary that repeats a string decodes through the
	// vector's index to one entry, and re-encodes to the canonical text.
	col, err = decodeLeaf([]byte(`{"t":3,"dict":["a","a"],"w":1,"p":"Ag"}`), 2)
	if err != nil {
		t.Fatal(err)
	}
	requireSameValues(t, "repeated dictionary", values(col), []storage.Value{storage.Str("a"), storage.Str("a")})
	if fmt.Sprint(col.Dict(), col.Codes()) != "[a] [0 0]" {
		t.Fatalf("repeated dictionary decoded to %q, codes %v", col.Dict(), col.Codes())
	}
	if got := requireRoundTrip(t, col); string(got) != `{"t":3,"v":["a","a"]}` {
		t.Fatalf("repeated dictionary re-encodes as %s", got)
	}
}

// FuzzDecodeLeaf: arbitrary bytes never panic the leaf decoder, and
// whatever it accepts as the row count asked for — what a vector can
// hold — re-encodes to bytes no longer than the plain form of those
// values, which decode to the same values and are a fixed point of the
// codec. Among the seeds are the struct-array and decimal-index leaves
// older stores wrote, which it refuses.
func FuzzDecodeLeaf(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	for kind := storage.KindNull; kind <= storage.KindBool; kind++ {
		col := mustVector(f, kind, randomLeaf(rng, kind))
		f.Add(mustEncode(f, col, 0, col.Len()), uint16(col.Len()))
		vals := randomLeaf(rng, kind)
		legacy, err := json.Marshal(vals)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(legacy, uint16(len(vals)))
	}
	for _, seed := range []struct {
		leaf string
		want uint16
	}{
		{``, 0}, {`null`, 0}, {`[]`, 0}, {`{}`, 0}, {`[null]`, 1}, {`{"t":1}`, 0}, {`{"t":1,"v":null}`, 0}, {`{"t":0,"v":[null,0]}`, 2},
		{`{"t":5,"v":[]}`, 0}, {`{"t":-1,"v":[]}`, 0}, {`{"t":1,"v":[1.5]}`, 1}, {`{"t":1,"v":[9223372036854775808]}`, 1},
		{`{"t":2,"v":[1e999]}`, 1}, {`{"t":2,"v":[-0,1E+2]}`, 2}, {`{"t":3,"v":["\ud800",7]}`, 2}, {`{"t":4,"v":[true,null,"x"]}`, 3},
		{`{"t":3,"v":["a"],"v":["b"]}`, 1}, {`[{"Kind":9,"S":"x"},{"kind":1,"i":2}]`, 2}, {`[{"Kind":2,"F":1e999}]`, 1}, {` [1]`, 1},
		{`[{"F":-0}]`, 1},
		// The runs and dictionary forms, int64 extremes and forgeries among them.
		{`{"t":1,"dr":[1,256]}`, 256}, {`{"t":1,"dr":[42,1,0,255]}`, 256}, {`{"t":1,"dr":[10,2]}`, 2},
		{`{"t":1,"dr":[9223372036854775807,1,-9223372036854775808,2,1,1]}`, 4}, {`{"t":1,"dr":[-9223372036854775808,3]}`, 3},
		{`{"t":1,"dr":[1,4611686018427387904]}`, 256}, {`{"t":1,"dr":[1,9223372036854775807,1,9223372036854775807,1,5]}`, 3},
		{`{"t":1,"dr":[1,0,1,3]}`, 3}, {`{"t":1,"dr":[1,3,5]}`, 3}, {`{"t":2,"dr":[1,3]}`, 3}, {`{"t":1,"dr":null}`, 0},
		{`{"t":3,"dict":["east","west"],"ix":[0,1,1,0]}`, 4}, {`{"t":3,"dict":["a","a",""],"ix":[1,0]}`, 2}, {`{"t":3,"dict":["a","a"],"ix":[0,1]}`, 2},
		{`{"t":3,"dict":["a"],"ix":[0,1]}`, 2}, {`{"t":3,"dict":["a"],"ix":[-1]}`, 1}, {`{"t":3,"dict":[],"ix":[]}`, 0},
		{`{"t":3,"v":["a"],"dict":["a"],"ix":[0]}`, 1}, {`{"t":3,"dict":["\ud800","<\u2028>"],"ix":[1,0,1]}`, 3},
		// The packed forms, and their forgeries.
		{`{"t":1,"lo":5,"w":2,"p":"JA"}`, 3}, {`{"t":2,"lo":5,"w":2,"s":1,"p":"JA"}`, 3}, {`{"t":3,"dict":["a","b","c"],"w":2,"p":"JA"}`, 3},
		{`{"t":1,"lo":-9223372036854775808,"w":64,"p":"////////////////////////////////"}`, 3}, {`{"t":1,"lo":42,"w":0,"p":""}`, 256},
		{`{"t":2,"lo":-9007199254740992,"w":54,"s":9,"p":"AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"}`, 6}, {`{"t":2,"lo":1,"w":2,"s":9,"p":"JAk"}`, 6},
		{`{"t":1,"lo":0,"w":65,"p":"AAAAAAAAAAAAAAAAAAAAAAAAAAA"}`, 3}, {`{"t":1,"lo":0,"w":-1,"p":""}`, 3}, {`{"t":1,"lo":0,"w":8,"p":"AB*D"}`, 3},
		{`{"t":1,"lo":0,"w":0,"p":7}`, 3}, {`{"t":1,"lo":0,"w":8,"p":"AAA"}`, 3}, {`{"t":1,"lo":0,"w":8,"p":"AAAAAA"}`, 3},
		{`{"t":1,"lo":0,"w":8,"p":"AAA\n"}`, 3}, {`{"t":1,"lo":0,"w":3,"p":"AA=="}`, 3}, {`{"t":1,"lo":0,"w":3,"p":"AAI"}`, 3},
		{`{"t":1,"lo":0,"w":3,"p":"AAB"}`, 3}, {`{"t":2,"lo":0,"w":0,"s":10,"p":""}`, 3}, {`{"t":2,"lo":0,"w":0,"s":-1,"p":""}`, 3},
		{`{"t":2,"lo":9007199254740992,"w":1,"s":0,"p":"Ag"}`, 3}, {`{"t":2,"lo":9007199254740993,"w":0,"s":0,"p":""}`, 3},
		{`{"t":2,"lo":0,"w":64,"s":0,"p":"////////////////////////////////"}`, 3}, {`{"t":3,"dict":["a","b"],"w":2,"p":"JA"}`, 3},
		{`{"t":3,"dict":["a"],"w":64,"p":"AAAAAAAAAIAAAAAAAAAAgAAAAAAAAACA"}`, 3}, {`{"t":1,"v":[1,2,3],"lo":0,"w":0,"p":""}`, 3},
		{`{"t":1,"dr":[1,3],"lo":0,"w":0,"p":""}`, 3}, {`{"t":3,"dict":["a"],"ix":[0,0,0],"w":0,"p":""}`, 3}, {`{"t":3,"dict":["a"]}`, 0},
		{`{"t":1,"dict":["a"],"lo":0,"w":0,"p":""}`, 3}, {`{"t":3,"w":0,"p":""}`, 3}, {`{"t":4,"w":0,"p":""}`, 3},
	} {
		f.Add([]byte(seed.leaf), seed.want)
	}
	f.Fuzz(func(t *testing.T, data []byte, want uint16) {
		col, err := decodeLeaf(data, int(want))
		if err != nil {
			return
		}
		if col.Len() != int(want) {
			t.Fatalf("decoded %q to %d values, asked for %d", data, col.Len(), want)
		}
		enc, err := encodeLeaf(col, 0, col.Len())
		if err != nil {
			t.Fatalf("decoded %q to %#v, which does not encode: %v", data, values(col), err)
		}
		if plain := mustPlain(t, col, 0, col.Len()); len(enc) > len(plain) {
			t.Fatalf("%q re-encodes as %s, longer than its plain form %s", data, enc, plain)
		}
		again, err := decodeLeaf(enc, col.Len())
		if err != nil {
			t.Fatalf("decoded %q, re-encoded as %s, which does not decode: %v", data, enc, err)
		}
		requireSameValues(t, string(enc), values(again), values(col))
		if fixed, err := encodeLeaf(again, 0, again.Len()); err != nil || !bytes.Equal(fixed, enc) {
			t.Fatalf("%s re-encodes as %s, %v", enc, fixed, err)
		}
	})
}

// spanFromBytes builds a span of one kind from fuzz bytes. Each value
// reads a selector byte — one in eight makes it NULL — and then what its
// kind needs: INT a signed number of 1, 2, 4 or 8 bytes; FLOAT a
// float64's bits (NaN and ±Inf, which no leaf carries, read as -0), -0,
// a subnormal, or a decimal of 2 to 9 places; TEXT up to four characters
// JSON escapes or repeats; BOOL a bit of the selector.
func spanFromBytes(t *testing.T, kind storage.Kind, data []byte) *storage.Vector {
	alphabet := []string{"a", "b", " ", `"`, `\`, "<", "\x00", "\u2028", "é", "東"}
	next := func(n int) uint64 {
		var v uint64
		for i := 0; i < n && len(data) > 0; i++ {
			v |= uint64(data[0]) << (8 * i)
			data = data[1:]
		}
		return v
	}
	col := storage.NewVector(kind, 0)
	for len(data) > 0 {
		sel := next(1)
		v := storage.Null()
		if sel%8 != 0 {
			switch arm := int(sel>>3) % 4; kind {
			case storage.KindInt:
				shift := 64 - 8<<arm
				v = storage.Int(int64(next(8>>(3-arm))<<shift) >> shift)
			case storage.KindFloat:
				f := math.Copysign(0, -1)
				switch arm {
				case 0:
					if f = math.Float64frombits(next(8)); math.IsNaN(f) || math.IsInf(f, 0) {
						f = math.Copysign(0, -1)
					}
				case 2:
					f = math.Float64frombits(next(8) & (1<<52 - 1))
				case 3:
					f = float64(int32(next(4))) / math.Pow10(2+int(sel>>5))
				}
				v = storage.Float(f)
			case storage.KindString:
				var b strings.Builder
				for n := arm + int(sel>>5)%2; n > 0; n-- {
					b.WriteString(alphabet[next(1)%uint64(len(alphabet))])
				}
				v = storage.Str(b.String())
			case storage.KindBool:
				v = storage.Bool(arm%2 == 1)
			}
		}
		if err := col.Append(v); err != nil {
			t.Fatal(err)
		}
	}
	return col
}

// FuzzEncodeLeaf runs the codec in the encode direction: a span built
// from the fuzz bytes encodes, decodes to itself bit for bit, is written
// no longer than its plain form, and re-encodes from the decode to the
// same bytes.
func FuzzEncodeLeaf(f *testing.F) {
	rng := rand.New(rand.NewSource(30))
	for kind := byte(0); kind < 4; kind++ {
		for _, n := range []int{16, 300, 2000} {
			data := make([]byte, n)
			rng.Read(data)
			f.Add(kind, data)
		}
	}
	// Spans of decimals — prices in cents, then 9-place values — and of
	// small integers, which the packed forms are for.
	for _, sel := range []byte{0x19, 0xf9, 0x01, 0x09} {
		var data []byte
		for i := 0; i < 256; i++ {
			data = append(data, sel, byte(i*37), byte(i%3), 0, 0)
		}
		f.Add(byte(1), data)
		f.Add(byte(0), data)
	}
	f.Fuzz(func(t *testing.T, kind byte, data []byte) {
		col := spanFromBytes(t, storage.KindInt+storage.Kind(kind%4), data)
		enc := mustEncode(t, col, 0, col.Len())
		dec, err := decodeLeaf(enc, col.Len())
		if err != nil {
			t.Fatalf("%s does not decode: %v", enc, err)
		}
		requireSameValues(t, string(enc), values(dec), values(col))
		if plain := mustPlain(t, col, 0, col.Len()); len(enc) > len(plain) {
			t.Fatalf("%s is longer than its plain form %s", enc, plain)
		}
		if again := mustEncode(t, dec, 0, dec.Len()); !bytes.Equal(again, enc) {
			t.Fatalf("%s re-encodes from its decode as %s", enc, again)
		}
	})
}

// copyLeafFixture copies a fixture journal into a fresh directory.
func copyLeafFixture(t *testing.T, fixture string) string {
	t.Helper()
	pack, err := os.ReadFile(filepath.Join(fixture, packName))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, packName), pack, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

func openDir(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := s.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return s
}

// requireSameVersion requires two versions to materialize cell for cell
// equal.
func requireSameVersion(t *testing.T, s *Store, a, b Hash) {
	t.Helper()
	da, err := s.MaterializeDatabase(a)
	if err != nil {
		t.Fatal(err)
	}
	db, err := s.MaterializeDatabase(b)
	if err != nil {
		t.Fatal(err)
	}
	requireSameDB(t, da, db)
}

// TestWritesV2LeafBytes requires the journal this code writes for the
// readings fixture's two commits to be readings-v6's, byte for byte, its
// leaves to be the fixture's, and its two versions to read back.
func TestWritesV2LeafBytes(t *testing.T) {
	dir := t.TempDir()
	commitLeafFixture(t, openDir(t, dir))
	got, err := os.ReadFile(filepath.Join(dir, packName))
	if err != nil {
		t.Fatal(err)
	}
	pinned, err := os.ReadFile(filepath.Join(readingsFixture, packName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pinned) {
		t.Errorf("journal is %d bytes, sha256 %s; fixture has %d bytes, sha256 %s", len(got), hashBytes(got), len(pinned), hashBytes(pinned))
	}
	s := NewMemory()
	want := commitLeafFixture(t, s)
	requireLeavesOf(t, s, readingsFixture, leafFixtureRoot)
	tab, err := want[0].Get("readings")
	if err != nil {
		t.Fatal(err)
	}
	for c, cd := range tab.Schema() {
		nulls := 0
		for _, v := range tab.Column(c) {
			if v.IsNull() {
				nulls++
			}
		}
		if nulls == 0 || nulls == tab.NumRows() {
			t.Fatalf("fixture column %s has %d NULLs in %d rows, want some of each", cd.Name, nulls, tab.NumRows())
		}
	}
	fixture := openDir(t, copyLeafFixture(t, readingsFixture))
	for turn := range want {
		db, _, err := fixture.DatabaseAsOf(leafFixtureRoot, turn)
		if err != nil {
			t.Fatal(err)
		}
		requireSameDB(t, db, want[turn])
	}
}

// tableLeaves returns the leaf refs of the one table of a db tree.
func tableLeaves(t *testing.T, s *Store, tree Hash) []Hash {
	t.Helper()
	tables, err := s.Refs(tree)
	if err != nil || len(tables) != 1 {
		t.Fatalf("db refs %v, %v", tables, err)
	}
	leaves, err := s.Refs(tables[0])
	if err != nil {
		t.Fatal(err)
	}
	return leaves
}

// leafForms names the form of each leaf of the one table of a db tree
// by its keys, "t" aside, sorted: "v", "dr", "dict ix", "dict p w",
// "lo p w" or "lo p s w".
func leafForms(t *testing.T, s *Store, tree Hash) []string {
	t.Helper()
	var forms []string
	for _, h := range tableLeaves(t, s, tree) {
		var keys map[string]json.RawMessage
		if _, data, err := s.Data(h); err != nil || json.Unmarshal(data, &keys) != nil {
			t.Fatal(err)
		}
		var names []string
		for k := range keys {
			if k != "t" {
				names = append(names, k)
			}
		}
		slices.Sort(names)
		forms = append(forms, strings.Join(names, " "))
	}
	return forms
}

// v4Forms are the forms of the orders fixture's leaves, three a column:
// runs for the key and the constant, a dictionary for the regions but in
// the leaf with the NULL, and packed for the periodic quantity and the
// two-decimal amount.
var v4Forms = []string{"dr", "dr", "dr", "dict p w", "v", "dict p w", "dr", "dr", "dr",
	"lo p w", "lo p w", "lo p w", "lo p s w", "lo p s w", "lo p s w"}

// requireOrdersFixture requires a fixture journal to hold
// ordersFixtureDB at turn 0 in leaves of the given forms.
func requireOrdersFixture(t *testing.T, fixture string, forms []string) {
	t.Helper()
	s := openDir(t, copyLeafFixture(t, fixture))
	db, c, err := s.DatabaseAsOf(ordersFixtureRoot, 0)
	if err != nil {
		t.Fatal(err)
	}
	requireSameDB(t, db, ordersFixtureDB())
	if got := leafForms(t, s, c.Tree); fmt.Sprint(got) != fmt.Sprint(forms) {
		t.Errorf("%s leaves are in the forms %q, want %q", fixture, got, forms)
	}
}

// TestWritesV6LeafBytes pins the bytes this code journals for
// ordersFixtureDB — runs, dictionary and packed leaves under a table, db
// and commit chunk and a root record, every payload binary — and reads
// them back.
func TestWritesV6LeafBytes(t *testing.T) {
	dir := t.TempDir()
	commitOrdersFixture(t, openDir(t, dir))
	got, err := os.ReadFile(filepath.Join(dir, packName))
	if err != nil {
		t.Fatal(err)
	}
	pinned, err := os.ReadFile(filepath.Join(leafFixture, packName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pinned) {
		t.Errorf("journal is %d bytes, sha256 %s; fixture has %d bytes, sha256 %s", len(got), hashBytes(got), len(pinned), hashBytes(pinned))
	}
	requireOrdersFixture(t, leafFixture, v4Forms)
}

// requireLeavesOf requires every commit on root in s to list, table by
// table, the leaves the same commit of the fixture journal lists.
func requireLeavesOf(t *testing.T, s *Store, fixture, root string) {
	t.Helper()
	got, err := s.Log(root)
	if err != nil {
		t.Fatal(err)
	}
	f := openDir(t, copyLeafFixture(t, fixture))
	want, err := f.Log(root)
	if err != nil || len(want) != len(got) {
		t.Fatalf("%s log = %+v, %v; this code committed %d versions", fixture, want, err, len(got))
	}
	for i := range got {
		if g, w := tableLeaves(t, s, got[i].Tree), tableLeaves(t, f, want[i].Tree); !slices.Equal(g, w) {
			t.Errorf("commit %d lists leaves %v; %s has %v", i, g, fixture, w)
		}
	}
}

// TestLeafBytesPerValue holds the journal of an orders-shaped table —
// the benchmark's scan_heavy CSV: int id, c%04d customer, eight region
// names, 1–12, a two-decimal amount — to 2.90 bytes per value,
// chunk heads, hashes and frames included (it measures 2.76, 2.80 while
// a leaf sat in a JSON envelope, 2.95 while the table chunk spelled its
// leaf refs in hex; the struct-array form
// took ~44, the plain form alone ~6.7, plain, runs and decimal
// dictionaries ~4.3).
func TestLeafBytesPerValue(t *testing.T) {
	const rows = 6000
	regions := []string{"north", "south", "east", "west", "central", "coastal", "alpine", "urban"}
	tab := storage.NewTable("orders", storage.Schema{
		{Name: "id", Kind: storage.KindInt},
		{Name: "customer", Kind: storage.KindString},
		{Name: "region", Kind: storage.KindString},
		{Name: "month", Kind: storage.KindInt},
		{Name: "amount", Kind: storage.KindFloat},
	})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < rows; i++ {
		tab.MustAppendRow(storage.Int(int64(i+1)), storage.Str(fmt.Sprintf("c%04d", rng.Intn(2000))),
			storage.Str(regions[rng.Intn(len(regions))]), storage.Int(int64(1+rng.Intn(12))),
			storage.Float(float64(rng.Intn(100000))/100))
	}
	db := storage.NewDatabase("bench")
	db.Put(tab)
	dir := t.TempDir()
	s := openDir(t, dir)
	c, err := s.CommitDatabase("data", db, 0)
	if err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(filepath.Join(dir, packName))
	if err != nil {
		t.Fatal(err)
	}
	values := int64(rows * tab.NumCols())
	t.Logf("%d values in a %d-byte journal: %.2f bytes per value", values, info.Size(), float64(info.Size())/float64(values))
	if info.Size()*100 > 290*values {
		t.Fatalf("journal is %d bytes for %d values, want at most 2.90 per value", info.Size(), values)
	}
	got, err := s.MaterializeDatabase(c.Tree)
	if err != nil {
		t.Fatal(err)
	}
	requireSameDB(t, got, db)
}

// TestForgedTableChunkIsAnError: AddPackets verifies a chunk's hash,
// not its shape, so every reader of a table tree must turn a malformed
// one into a MalformedChunkError — none of these may panic.
func TestForgedTableChunkIsAnError(t *testing.T) {
	s := NewMemory()
	put := func(kind string, refs []Hash, data string) Hash {
		t.Helper()
		return mustPut(t, s, kind, refs, data)
	}
	ints := put("leaf", nil, `{"t":1,"v":[1,2,3]}`)
	good := put("table", []Hash{ints}, `{"name":"t","schema":[{"name":"x","kind":1}],"rows":3,"leafRows":256}`)
	table := func(leaf Hash, schemaKind int, rows, leafRows int) Hash {
		return put("table", []Hash{leaf}, fmt.Sprintf(`{"name":"t","schema":[{"name":"x","kind":%d}],"rows":%d,"leafRows":%d}`, schemaKind, rows, leafRows))
	}
	// A three-row table of one column of the given kind over one leaf.
	leaf := func(schemaKind int, data string) Hash { return table(put("leaf", nil, data), schemaKind, 3, 256) }
	// "JA" packs 0, 1 and 2 in two bits each.
	wellFormed := []Hash{good, leaf(1, `{"t":1,"dr":[1,3]}`), leaf(3, `{"t":3,"dict":["a","b"],"w":1,"p":"BQ"}`),
		leaf(1, `{"t":1,"lo":5,"w":2,"p":"JA"}`), leaf(2, `{"t":2,"lo":5,"w":2,"s":1,"p":"JA"}`), leaf(3, `{"t":3,"dict":["a","b","c"],"w":2,"p":"JA"}`)}
	for _, well := range wellFormed {
		if tab, err := s.MaterializeTable(well); err != nil || tab.NumRows() != 3 {
			t.Fatalf("a well-formed table: %v", err)
		}
	}
	cols4 := `{"name":"a","kind":1},{"name":"b","kind":1},{"name":"c","kind":1},{"name":"d","kind":1}`
	// A few bytes that claim 2^40 rows, under a table that claims as many
	// a leaf: refused before MaterializeTable sizes a column by them.
	vast := []Hash{
		table(put("leaf", nil, `{"t":1,"dr":[0,1099511627776]}`), 1, 1<<40, 1<<40),
		table(put("leaf", nil, `{"t":1,"lo":0,"w":0,"p":""}`), 1, 1<<40, 1<<40),
	}
	strs := put("leaf", nil, `[{"Kind":3,"S":"a"},{"Kind":1,"I":2},{"Kind":1,"I":3}]`)
	for _, forged := range []struct {
		name string
		h    Hash
	}{
		{"leafRows 0", table(ints, 1, 3, 0)},
		{"negative rows", table(ints, 1, -5, 256)},
		{"too few leaf refs", table(ints, 1, 600, 256)},
		{"too many leaf refs", put("table", []Hash{ints, ints}, `{"name":"t","schema":[{"name":"x","kind":1}],"rows":3,"leafRows":256}`)},
		{"rows without columns", put("table", nil, `{"name":"t","rows":3,"leafRows":256}`)},
		{"leaves × columns overflows", put("table", []Hash{ints, ints, ints, ints}, `{"name":"t","schema":[`+cols4+`],"rows":4611686018427387904,"leafRows":1}`)},
		{"schema kind out of range", table(ints, 9, 3, 256)},
		{"leaf shorter than its row range", table(ints, 1, 4, 256)},
		{"leaf longer than its row range", table(ints, 1, 2, 256)},
		{"row count no leaf backs", table(ints, 1, 1<<40, 1<<40)},
		{"typed leaf of another kind than the column", table(ints, 3, 3, 256)},
		{"untyped leaf of another kind than the column", table(strs, 1, 3, 256)},
		{"leaf ref to a table chunk", table(good, 1, 3, 256)},
		{"leaf that does not decode", leaf(1, `{"t":1,"v":[1,"2",3]}`)},
		{"a run count of zero", leaf(1, `{"t":1,"dr":[1,0,1,3]}`)},
		{"a negative run count", leaf(1, `{"t":1,"dr":[1,-1,1,4]}`)},
		{"run counts short of the rows", leaf(1, `{"t":1,"dr":[1,2]}`)},
		{"run counts past the rows", leaf(1, `{"t":1,"dr":[1,2,5,2]}`)},
		{"a run count near 2^62", leaf(1, `{"t":1,"dr":[1,4611686018427387904]}`)},
		{"run counts whose sum wraps to the rows", leaf(1, `{"t":1,"dr":[1,9223372036854775807,1,9223372036854775807,1,5]}`)},
		{"a delta without its count", leaf(1, `{"t":1,"dr":[1,3,5]}`)},
		{"runs of another kind", leaf(2, `{"t":2,"dr":[1,3]}`)},
		{"runs in a column of another kind", leaf(3, `{"t":1,"dr":[1,3]}`)},
		{"an index past the dictionary", leaf(3, `{"t":3,"dict":["a"],"w":1,"p":"Ag"}`)},
		{"decimal indexes", leaf(3, `{"t":3,"dict":["a"],"ix":[0,0,0]}`)},
		{"fewer indexes than rows", leaf(3, `{"t":3,"dict":["a"],"w":8,"p":"AAA"}`)},
		{"more indexes than rows", leaf(3, `{"t":3,"dict":["a"],"w":8,"p":"AAAAAA"}`)},
		{"a dictionary of another kind", leaf(1, `{"t":1,"dict":["1"],"w":0,"p":""}`)},
		{"v and dr", leaf(1, `{"t":1,"v":[1,2,3],"dr":[1,3]}`)},
		{"v and dict", leaf(3, `{"t":3,"v":["a","a","a"],"dict":["a"],"w":0,"p":""}`)},
		{"dr and dict", leaf(1, `{"t":1,"dr":[1,3],"dict":["a"],"w":0,"p":""}`)},
		{"a null dr beside v", leaf(1, `{"t":1,"v":[1,2,3],"dr":null}`)},
		{"leafRows past DefaultLeafRows", table(ints, 1, 3, DefaultLeafRows+1)},
		{"a one-run leaf claiming 2^40 rows", vast[0]},
		{"a zero-width packed leaf claiming 2^40 rows", vast[1]},
		{"a width of 65", leaf(1, `{"t":1,"lo":0,"w":65,"p":"AAAAAAAAAAAAAAAAAAAAAAAAAAA"}`)},
		{"a width of -1", leaf(1, `{"t":1,"lo":0,"w":-1,"p":""}`)},
		{"packed text that is not base64", leaf(1, `{"t":1,"lo":0,"w":8,"p":"AB*D"}`)},
		{"packed text that is not a string", leaf(1, `{"t":1,"lo":0,"w":0,"p":7}`)},
		{"packed text of too few bytes", leaf(1, `{"t":1,"lo":0,"w":8,"p":"AAA"}`)},
		{"packed text of too many bytes", leaf(1, `{"t":1,"lo":0,"w":8,"p":"AAAAAA"}`)},
		{"packed text padded with a newline", leaf(1, `{"t":1,"lo":0,"w":8,"p":"AAA\n"}`)},
		{"packed text with a base64 pad", leaf(1, `{"t":1,"lo":0,"w":3,"p":"AA=="}`)},
		{"a bit set past the last value", leaf(1, `{"t":1,"lo":0,"w":3,"p":"AAI"}`)},
		{"stray bits in the last base64 character", leaf(1, `{"t":1,"lo":0,"w":3,"p":"AAB"}`)},
		{"a scale of 10", leaf(2, `{"t":2,"lo":0,"w":0,"s":10,"p":""}`)},
		{"a scale of -1", leaf(2, `{"t":2,"lo":0,"w":0,"s":-1,"p":""}`)},
		{"a FLOAT k of 2^53+1", leaf(2, `{"t":2,"lo":9007199254740992,"w":1,"s":0,"p":"Ag"}`)},
		{"a FLOAT lo past 2^53", leaf(2, `{"t":2,"lo":9007199254740993,"w":0,"s":0,"p":""}`)},
		{"a FLOAT lo below -2^53", leaf(2, `{"t":2,"lo":-9007199254740993,"w":0,"s":0,"p":""}`)},
		{"a FLOAT k past 2^53 in 64 bits", leaf(2, `{"t":2,"lo":0,"w":64,"s":0,"p":"////////////////////////////////"}`)},
		{"a packed index at the dictionary's length", leaf(3, `{"t":3,"dict":["a","b"],"w":2,"p":"JA"}`)},
		{"a packed index past 2^63", leaf(3, `{"t":3,"dict":["a"],"w":64,"p":"AAAAAAAAAIAAAAAAAAAAgAAAAAAAAACA"}`)},
		{"v and p", leaf(1, `{"t":1,"v":[1,2,3],"lo":0,"w":0,"p":""}`)},
		{"dr and p", leaf(1, `{"t":1,"dr":[1,3],"lo":0,"w":0,"p":""}`)},
		{"a dictionary without ix or p", leaf(3, `{"t":3,"dict":["a"]}`)},
		{"a dictionary in an INT leaf", leaf(1, `{"t":1,"dict":["a"],"lo":0,"w":0,"p":""}`)},
		{"packed TEXT without a dictionary", leaf(3, `{"t":3,"w":0,"p":""}`)},
		{"packed BOOL", leaf(4, `{"t":4,"w":0,"p":""}`)},
		{"packed INT in a TEXT column", leaf(3, `{"t":1,"lo":0,"w":0,"p":""}`)},
	} {
		tab, err := s.MaterializeTable(forged.h)
		var mal *MalformedChunkError
		if !errors.As(err, &mal) {
			t.Errorf("%s: materialized %v, %v; want a MalformedChunkError", forged.name, tab, err)
		}
	}

	// A count near 2^62, and a table of 2^40 rows a leaf, are refused
	// before anything is sized by them.
	huge := []byte(`{"t":1,"dr":[1,4611686018427387904]}`)
	refusals := map[string]func() error{
		"a run of 2^62 values":           func() error { _, err := decodeLeaf(huge, 256); return err },
		"a one-run leaf of 2^40 rows":    func() error { _, err := s.MaterializeTable(vast[0]); return err },
		"a zero-width leaf of 2^40 rows": func() error { _, err := s.MaterializeTable(vast[1]); return err },
	}
	for name, refuse := range refusals {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 100; i++ {
			if refuse() == nil {
				t.Fatalf("accepted %s", name)
			}
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / 100; per > 4<<10 {
			t.Fatalf("refusing %s allocated %d bytes", name, per)
		}
	}
}

// TestForgedDBAndCommitChunksAreErrors: a db or commit chunk may be a
// peer's as well. MaterializeDatabase, DatabaseAsOf and ResolveTree
// answer a malformed one with a MalformedChunkError naming it, and none
// panics.
func TestForgedDBAndCommitChunksAreErrors(t *testing.T) {
	s := NewMemory()
	put := func(kind string, refs []Hash, data string) Hash {
		t.Helper()
		return mustPut(t, s, kind, refs, data)
	}
	leaf := put("leaf", nil, `{"t":1,"v":[1,2,3]}`)
	table := put("table", []Hash{leaf}, `{"name":"t","schema":[{"name":"x","kind":1}],"rows":3,"leafRows":256}`)
	db := func(data string, refs ...Hash) Hash { return put("db", refs, data) }
	good := db(`{"name":"d","tables":["t"]}`, table)
	commitData, err := appendCommitData("", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	commitWith := func(data string, refs ...Hash) Hash { return put("commit", refs, data) }
	commit := func(refs ...Hash) Hash { return commitWith(string(commitData), refs...) }
	if got, err := s.MaterializeDatabase(commit(good)); err != nil || len(got.Tables()) != 1 {
		t.Fatalf("the well-formed database: %v", err)
	}
	names := func(err error, culprit Hash) bool {
		var mal *MalformedChunkError
		return errors.As(err, &mal) && mal.Chunk == culprit
	}
	type forged struct {
		name          string
		node, culprit Hash
	}
	self := func(name string, node Hash) forged { return forged{name, node, node} }
	dbs := []forged{
		self("more refs than names", db(`{"name":"d","tables":["t"]}`, table, table)),
		self("more names than refs", db(`{"name":"d","tables":["t","u"]}`, table)),
		self("names that are not strings", db(`{"name":"d","tables":[7]}`, table)),
		self("db data that is not JSON", db(`{"name":"d"`, table)),
		self("db data with trailing bytes", db(`{"name":"d","tables":["t"]}x`, table)),
		{"a table ref that points at a leaf", db(`{"name":"d","tables":["t"]}`, leaf), leaf},
		{"a table ref that points at a db", db(`{"name":"d","tables":["t"]}`, good), good},
	}
	commits := []forged{
		self("a commit with no ref", commit()),
		self("a commit with two refs", commit(good, good)),
		self("a commit of a commit", commit(commit(good))),
		self("a commit of a commit with no ref", commit(commit())),
		self("commit data flagged 2", commitWith("\x02"+string(commitData[1:]), good)),
		self("commit data with a trailing byte", commitWith(string(commitData)+"\x00", good)),
		self("commit data with an overlong turn", commitWith("\x00\x80\x00\x01", good)),
		self("commit data short of its parent", commitWith("\x01"+string(commitData[1:]), good)),
		self("commit data in JSON", commitWith(`{"turn":0,"stamp":1}`, good)),
		self("no commit data", commitWith("", good)),
	}
	for i, f := range append(dbs, commits...) {
		if _, err := s.MaterializeDatabase(f.node); !names(err, f.culprit) {
			t.Errorf("%s: MaterializeDatabase = %v, want an error naming %s", f.name, err, f.culprit)
		}
		// In a root's log behind a well-formed commit, a forged db names
		// itself and a forged commit the log entry that pins it.
		root := fmt.Sprintf("forged/%d", i)
		c, err := s.Commit(root, f.node, 0)
		if err != nil {
			t.Fatal(err)
		}
		culprit := f.culprit
		if i >= len(dbs) {
			culprit = c.Hash
		}
		if _, _, err := s.DatabaseAsOf(root, 0); !names(err, culprit) {
			t.Errorf("%s: DatabaseAsOf = %v, want an error naming %s", f.name, err, culprit)
		}
		if i < len(dbs) {
			if tree, err := s.ResolveTree(c.Hash); err != nil || tree != f.node {
				t.Errorf("%s: ResolveTree of its commit = %s, %v; want the db", f.name, tree, err)
			}
		} else if _, err := s.ResolveTree(f.node); !names(err, f.culprit) {
			t.Errorf("%s: ResolveTree = %v, want an error naming %s", f.name, err, f.culprit)
		}
	}
}

// TestAdoptCommitRefusesForgedCommits: AdoptCommit installs a commit a
// peer shipped, so its tree is input too. A commit whose tree is absent,
// a leaf, or another commit is refused naming the commit, and the root
// log, the stamp and the journal stay as they were.
func TestAdoptCommitRefusesForgedCommits(t *testing.T) {
	s, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	first := commitOrdersFixture(t, s)
	head, err := s.Head(ordersFixtureRoot)
	if err != nil {
		t.Fatal(err)
	}
	leaf := mustPut(t, s, "leaf", nil, `{"t":1,"v":[1,2,3]}`)
	data, err := appendCommitData(head.Hash, 1, 9)
	if err != nil {
		t.Fatal(err)
	}
	commit := func(tree Hash) Hash { return mustPut(t, s, "commit", []Hash{tree}, string(data)) }
	absent := hashBytes([]byte("absent"))
	forged := []struct {
		name   string
		commit Hash
	}{
		{"a commit of an absent tree", commit(absent)},
		{"a commit of a leaf", commit(leaf)},
		{"a commit of a commit", commit(head.Hash)},
	}
	for _, f := range forged {
		_, size := s.JournalSynced()
		stamp := s.stamp
		_, err := s.AdoptCommit(ordersFixtureRoot, f.commit)
		var mal *MalformedChunkError
		if !errors.As(err, &mal) || mal.Chunk != f.commit {
			t.Errorf("%s: AdoptCommit = %v, want an error naming %s", f.name, err, f.commit)
		}
		log, _ := s.Log(ordersFixtureRoot)
		if _, after := s.JournalSynced(); len(log) != 1 || s.stamp != stamp || after != size {
			t.Errorf("%s: the log holds %d commits, the stamp is %d (was %d), the journal %d bytes (was %d)", f.name, len(log), s.stamp, stamp, after, size)
		}
	}
	if _, err := s.AdoptCommit(ordersFixtureRoot, forged[0].commit); !errors.Is(err, ErrUnknownChunk) {
		t.Errorf("the absent tree: %v, want ErrUnknownChunk", err)
	}

	// A well-formed commit is adopted, and its tree reads back.
	good := commit(head.Tree)
	if c, err := s.AdoptCommit(ordersFixtureRoot, good); err != nil || c.Hash != good || c.Stamp != 9 {
		t.Fatalf("the well-formed commit: %+v, %v", c, err)
	}
	got, _, err := s.DatabaseAsOf(ordersFixtureRoot, 1)
	if err != nil {
		t.Fatal(err)
	}
	requireSameDB(t, got, first)
}
