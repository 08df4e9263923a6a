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
	"slices"
	"strings"
	"testing"

	"github.com/reliable-cda/cda/internal/storage"
)

// values returns col's rows as Values.
func values(col *storage.Vector) []storage.Value {
	out := make([]storage.Value, col.Len())
	for r := range out {
		out[r] = col.At(r)
	}
	return out
}

// mustVector builds a vector of the given kind from vals the one way a
// vector is written: appended to a table, row by row.
func mustVector(t testing.TB, kind storage.Kind, vals []storage.Value) *storage.Vector {
	t.Helper()
	tab := storage.NewTable("span", storage.Schema{{Name: "v", Kind: kind}})
	for _, v := range vals {
		if err := tab.AppendRow([]storage.Value{v}); err != nil {
			t.Fatalf("%s vector of %#v: %v", kind, vals, err)
		}
	}
	return tab.Vector(0)
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

// requireForm encodes all of col and requires the form the choice rule
// picks — the shortest of the forms its kind has, the earliest in the
// tie order on a tie — each written from col's values by json.Marshal,
// and one the check on a peer's leaf accepts.
func requireForm(t testing.TB, col *storage.Vector) []byte {
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
	if _, err := parseLeaf(data); err != nil {
		t.Fatalf("the leaf check refuses %s: %v", data, err)
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
// rule picks, the text json.Marshal gives its values, whether the plain
// text is written from the slice itself or through pointers; a legacy
// leaf is refused; what JSON cannot carry behaves as it did before the
// typed form.
func TestLeafRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(20261002))
	for i := 0; i < 400; i++ {
		kind := storage.Kind(i % 5) // KindNull draws an all-NULL leaf
		vals := randomLeaf(rng, kind)
		data := requireForm(t, mustVector(t, kind, vals))
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
		requireForm(t, mustVector(t, kind, structuredLeaf(rng, kind)))
	}
	requireForm(t, mustVector(t, storage.KindInt, nil))

	// Equal spans encode equal, whatever vector they sit in.
	a := []storage.Value{storage.Int(1), storage.Null(), storage.Int(3), storage.Int(4)}
	b := mustVector(t, storage.KindInt, append(append([]storage.Value{storage.Int(99)}, a...), storage.Int(5)))
	if x, y := requireForm(t, mustVector(t, storage.KindInt, a)), mustEncode(t, b, 1, 5); !bytes.Equal(x, y) {
		t.Fatalf("equal spans encoded as %s and %s", x, y)
	}
	// Runs start from 0, not from the row before the span.
	run := []storage.Value{storage.Int(5), storage.Int(6), storage.Int(7), storage.Int(8), storage.Int(9)}
	c := mustVector(t, storage.KindInt, append(append([]storage.Value{storage.Int(99)}, run...), storage.Int(3)))
	if x, y := requireForm(t, mustVector(t, storage.KindInt, run)), mustEncode(t, c, 1, 6); !bytes.Equal(x, y) || !strings.Contains(string(x), `"dr"`) {
		t.Fatalf("equal NULL-free spans encoded as %s and %s, want runs", x, y)
	}
	nulls := make([]storage.Value, 3)
	if x, y := requireForm(t, mustVector(t, storage.KindNull, nulls)), requireForm(t, mustVector(t, storage.KindFloat, nulls)); !bytes.Equal(x, y) {
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
		if _, err := parseLeaf(data); err == nil {
			t.Errorf("%s: the leaf check accepts %s", name, data)
		}
	}

	// Invalid UTF-8 becomes an escaped U+FFFD, as json.Marshal always
	// made it.
	invalid := []storage.Value{storage.Str("a\xffb\xc3")}
	if data := requireForm(t, mustVector(t, storage.KindString, invalid)); string(data) != `{"t":3,"v":["a\ufffdb\ufffd"]}` {
		t.Fatalf("invalid UTF-8 encodes as %s", data)
	}

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
	db := demoDB(299)
	tab, err := db.Get("metrics")
	if err != nil {
		t.Fatal(err)
	}
	tab.MustAppendRow(storage.Int(299), storage.Str("west"), storage.Float(math.NaN()))
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
		if got := requireForm(t, c.col); string(got) != c.want {
			t.Errorf("%v encodes as %s, want %s", values(c.col), got, c.want)
		}
	}
}

// FuzzDecodeLeaf ships arbitrary bytes as a peer's leaf packet: the
// check AddPackets holds a leaf's data to (parseLeaf) never panics, the
// packet is installed exactly when that check accepts the data, and then
// as it was sent; a refused one leaves the store empty. Whatever it
// accepts names at most one of the forms' value keys, and a dictionary
// only beside packed TEXT. Among the seeds are every form the encoder
// writes, forgeries of each, and the struct-array and decimal-index
// leaves older stores wrote, which it refuses.
func FuzzDecodeLeaf(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	for kind := storage.KindNull; kind <= storage.KindBool; kind++ {
		col := mustVector(f, kind, randomLeaf(rng, kind))
		f.Add(mustEncode(f, col, 0, col.Len()))
		legacy, err := json.Marshal(randomLeaf(rng, kind))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(legacy)
	}
	for _, leaf := range []string{
		``, `null`, `[]`, `{}`, `[null]`, `{"t":1}`, `{"t":1,"v":null}`, `{"t":0,"v":[null,0]}`,
		`{"t":5,"v":[]}`, `{"t":-1,"v":[]}`, `{"t":1,"v":[1.5]}`, `{"t":1,"v":[9223372036854775808]}`,
		`{"t":2,"v":[1e999]}`, `{"t":2,"v":[-0,1E+2]}`, `{"t":3,"v":["\ud800",7]}`, `{"t":4,"v":[true,null,"x"]}`,
		`{"t":3,"v":["a"],"v":["b"]}`, `[{"Kind":9,"S":"x"},{"kind":1,"i":2}]`, `[{"Kind":2,"F":1e999}]`, ` [1]`,
		`[{"F":-0}]`,
		// The runs and dictionary forms, int64 extremes and forgeries among them.
		`{"t":1,"dr":[1,256]}`, `{"t":1,"dr":[42,1,0,255]}`, `{"t":1,"dr":[10,2]}`,
		`{"t":1,"dr":[9223372036854775807,1,-9223372036854775808,2,1,1]}`, `{"t":1,"dr":[-9223372036854775808,3]}`,
		`{"t":1,"dr":[1,4611686018427387904]}`, `{"t":1,"dr":[1,9223372036854775807,1,9223372036854775807,1,5]}`,
		`{"t":1,"dr":[1,0,1,3]}`, `{"t":1,"dr":[1,3,5]}`, `{"t":2,"dr":[1,3]}`, `{"t":1,"dr":null}`,
		`{"t":3,"dict":["east","west"],"ix":[0,1,1,0]}`, `{"t":3,"dict":["a","a",""],"ix":[1,0]}`, `{"t":3,"dict":["a","a"],"ix":[0,1]}`,
		`{"t":3,"dict":["a"],"ix":[0,1]}`, `{"t":3,"dict":["a"],"ix":[-1]}`, `{"t":3,"dict":[],"ix":[]}`,
		`{"t":3,"v":["a"],"dict":["a"],"ix":[0]}`, `{"t":3,"dict":["\ud800","<\u2028>"],"ix":[1,0,1]}`,
		// The packed forms, and their forgeries.
		`{"t":1,"lo":5,"w":2,"p":"JA"}`, `{"t":2,"lo":5,"w":2,"s":1,"p":"JA"}`, `{"t":3,"dict":["a","b","c"],"w":2,"p":"JA"}`,
		`{"t":1,"lo":-9223372036854775808,"w":64,"p":"////////////////////////////////"}`, `{"t":1,"lo":42,"w":0,"p":""}`,
		`{"t":2,"lo":-9007199254740992,"w":54,"s":9,"p":"AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"}`, `{"t":2,"lo":1,"w":2,"s":9,"p":"JAk"}`,
		`{"t":1,"lo":0,"w":65,"p":"AAAAAAAAAAAAAAAAAAAAAAAAAAA"}`, `{"t":1,"lo":0,"w":-1,"p":""}`, `{"t":1,"lo":0,"w":8,"p":"AB*D"}`,
		`{"t":1,"lo":0,"w":0,"p":7}`, `{"t":1,"lo":0,"w":8,"p":"AAA"}`, `{"t":1,"lo":0,"w":8,"p":"AAAAAA"}`,
		`{"t":1,"lo":0,"w":8,"p":"AAA\n"}`, `{"t":1,"lo":0,"w":3,"p":"AA=="}`, `{"t":1,"lo":0,"w":3,"p":"AAI"}`,
		`{"t":1,"lo":0,"w":3,"p":"AAB"}`, `{"t":2,"lo":0,"w":0,"s":10,"p":""}`, `{"t":2,"lo":0,"w":0,"s":-1,"p":""}`,
		`{"t":2,"lo":9007199254740992,"w":1,"s":0,"p":"Ag"}`, `{"t":2,"lo":9007199254740993,"w":0,"s":0,"p":""}`,
		`{"t":2,"lo":0,"w":64,"s":0,"p":"////////////////////////////////"}`, `{"t":3,"dict":["a","b"],"w":2,"p":"JA"}`,
		`{"t":3,"dict":["a"],"w":64,"p":"AAAAAAAAAIAAAAAAAAAAgAAAAAAAAACA"}`, `{"t":1,"v":[1,2,3],"lo":0,"w":0,"p":""}`,
		`{"t":1,"dr":[1,3],"lo":0,"w":0,"p":""}`, `{"t":3,"dict":["a"],"ix":[0,0,0],"w":0,"p":""}`, `{"t":3,"dict":["a"]}`,
		`{"t":1,"dict":["a"],"lo":0,"w":0,"p":""}`, `{"t":3,"w":0,"p":""}`, `{"t":4,"w":0,"p":""}`,
	} {
		f.Add([]byte(leaf))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := appendChunk("leaf", nil, data)
		if err != nil {
			t.Fatal(err)
		}
		h := hashBytes(p)
		leaf, checked := parseLeaf(data)
		s := NewMemory()
		err = s.AddPackets([]Packet{{Hash: h, Data: p}})
		if (err == nil) != (checked == nil) {
			t.Fatalf("AddPackets(%q) = %v; the leaf check says %v", data, err, checked)
		}
		if err != nil {
			if !errors.Is(err, ErrBadPacket) || s.NumChunks() != 0 {
				t.Fatalf("refusing %q: %v, %d chunks installed", data, err, s.NumChunks())
			}
			return
		}
		if kind, got, err := s.Data(h); err != nil || kind != "leaf" || !bytes.Equal(got, data) {
			t.Fatalf("installed %q as a %q chunk holding %q, %v", data, kind, got, err)
		}
		forms := 0
		for _, form := range []json.RawMessage{leaf.V, leaf.DR, leaf.P} {
			if form != nil {
				forms++
			}
		}
		if forms > 1 || leaf.Dict != nil && (leaf.P == nil || leaf.T != storage.KindString) {
			t.Fatalf("accepted %q, fields %+v", data, leaf)
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
	tab := storage.NewTable("span", storage.Schema{{Name: "v", Kind: kind}})
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
		tab.MustAppendRow(v)
	}
	return tab.Vector(0)
}

// changed returns a value of kind other than v: a NULL's zero, an INT
// plus one, a FLOAT one step nearer zero (1 for a zero of either sign),
// a TEXT with a letter more, a BOOL negated.
func changed(kind storage.Kind, v storage.Value) storage.Value {
	switch {
	case v.IsNull():
		return map[storage.Kind]storage.Value{storage.KindInt: storage.Int(0), storage.KindFloat: storage.Float(0),
			storage.KindString: storage.Str(""), storage.KindBool: storage.Bool(false)}[kind]
	case kind == storage.KindInt:
		return storage.Int(v.I + 1)
	case kind == storage.KindFloat && v.F == 0:
		return storage.Float(1)
	case kind == storage.KindFloat:
		return storage.Float(math.Nextafter(v.F, 0))
	case kind == storage.KindString:
		return storage.Str(v.S + "a")
	default:
		return storage.Bool(!v.B)
	}
}

// FuzzEncodeLeaf runs the encoder on a span built from the fuzz bytes:
// the leaf is no longer than the span's plain form, is the same bytes
// when encoded again and when the span sits after a row of another
// vector, passes the check a peer's leaf meets, and differs from the
// leaf of the same span with one value changed: the encoder loses no
// value.
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
		if plain := mustPlain(t, col, 0, col.Len()); len(enc) > len(plain) {
			t.Fatalf("%s is longer than its plain form %s", enc, plain)
		}
		if again := mustEncode(t, col, 0, col.Len()); !bytes.Equal(again, enc) {
			t.Fatalf("%s encodes again as %s", enc, again)
		}
		vals := values(col)
		if len(vals) == 0 {
			return
		}
		after := mustVector(t, col.Kind(), append([]storage.Value{changed(col.Kind(), vals[0])}, vals...))
		if moved := mustEncode(t, after, 1, after.Len()); !bytes.Equal(moved, enc) {
			t.Fatalf("%s encodes after another row as %s", enc, moved)
		}
		if _, err := parseLeaf(enc); err != nil {
			t.Fatalf("the leaf check refuses %s: %v", enc, err)
		}
		at := int(kind/4) % len(vals)
		edited := slices.Clone(vals)
		edited[at] = changed(col.Kind(), vals[at])
		if other := mustEncode(t, mustVector(t, col.Kind(), edited), 0, len(edited)); bytes.Equal(other, enc) {
			t.Fatalf("%s is also the leaf of the span with value %d %#v made %#v", enc, at, vals[at], edited[at])
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

// requireJournalOf requires the journal s wrote to be size bytes and,
// with its back forms rendered canonical, the fixture's byte for byte:
// the fixture's writer spelled every ref's address, and nothing else
// moved.
func requireJournalOf(t *testing.T, s *Store, fixture string, size int) {
	t.Helper()
	got, err := os.ReadFile(filepath.Join(s.cfg.Dir, packName))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != size {
		t.Errorf("journal is %d bytes, want %d", len(got), size)
	}
	pinned, err := os.ReadFile(filepath.Join(fixture, packName))
	if err != nil {
		t.Fatal(err)
	}
	if canonical := canonicalJournal(t, s); !bytes.Equal(canonical, pinned) {
		t.Errorf("journal rendered canonical is %d bytes, sha256 %s; fixture has %d bytes, sha256 %s", len(canonical), hashBytes(canonical), len(pinned), hashBytes(pinned))
	}
}

// TestWritesV2LeafBytes requires the journal this code writes for the
// readings fixture's two commits to be readings-v7's, its refs spelled
// back, and its leaves to be the fixture's and readings-v6's, commit by
// commit.
func TestWritesV2LeafBytes(t *testing.T) {
	w := openDir(t, t.TempDir())
	commitLeafFixture(t, w)
	requireJournalOf(t, w, readingsFixture, 10765)
	s := NewMemory()
	commitLeafFixture(t, s)
	requireLeavesOf(t, s, readingsFixture, leafFixtureRoot)
	requireLeavesOf(t, s, readingsFixtureV6, leafFixtureRoot)
	tab, err := leafFixtureDB(false).Get("readings")
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

// requireOrdersFixture requires a fixture journal to pin, at turn 0,
// the tree this code encodes ordersFixtureDB to, in leaves of the given
// forms.
func requireOrdersFixture(t *testing.T, fixture string, forms []string) {
	t.Helper()
	s := openDir(t, copyLeafFixture(t, fixture))
	c, err := s.AsOf(ordersFixtureRoot, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := commitOrdersFixture(t, NewMemory()); c.Tree != want.Tree {
		t.Errorf("%s pins tree %s at turn 0; this code encodes %s", fixture, c.Tree, want.Tree)
	}
	if got := leafForms(t, s, c.Tree); fmt.Sprint(got) != fmt.Sprint(forms) {
		t.Errorf("%s leaves are in the forms %q, want %q", fixture, got, forms)
	}
}

// TestWritesV7LeafBytes pins the bytes this code journals for
// ordersFixtureDB — runs, dictionary and packed leaves under a table
// node, and a db node, which the commit record carries, each spelling
// its refs back — to leaf-v7's, which spelled every address, and
// requires leaf-v6 to pin the same tree.
func TestWritesV7LeafBytes(t *testing.T) {
	w := openDir(t, t.TempDir())
	commitOrdersFixture(t, w)
	requireJournalOf(t, w, leafFixture, 5578)
	requireOrdersFixture(t, leafFixture, v4Forms)
	requireOrdersFixture(t, leafFixtureV6, v4Forms)
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
	if _, err := openDir(t, dir).CommitDatabase("data", db, 0); err != nil {
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
}

// TestForgedTableChunkIsAnError: AddPackets holds a peer's leaf and
// table packets to their kinds' fields — a leaf's keys to one form's,
// and no refs — and refuses one that is not, as ErrBadPacket, with every
// packet of its batch. A leaf of each form and a table over them
// install. Nothing reads a table back, so what a leaf or a table claims
// beyond its fields is not checked.
func TestForgedTableChunkIsAnError(t *testing.T) {
	packet := func(kind string, refs []Hash, data string) Packet {
		t.Helper()
		p, err := appendChunk(kind, refs, []byte(data))
		if err != nil {
			t.Fatal(err)
		}
		return Packet{Hash: hashBytes(p), Data: p}
	}
	// "JA" packs 0, 1 and 2 in two bits each.
	var leaves []Packet
	var refs []Hash
	for _, data := range []string{`{"t":1,"v":[1,2,3]}`, `{"t":1,"dr":[1,3]}`, `{"t":3,"dict":["a","b"],"w":1,"p":"BQ"}`,
		`{"t":1,"lo":5,"w":2,"p":"JA"}`, `{"t":2,"lo":5,"w":2,"s":1,"p":"JA"}`, `{"t":0,"v":[null,null,null]}`} {
		leaves = append(leaves, packet("leaf", nil, data))
		refs = append(refs, leaves[len(leaves)-1].Hash)
	}
	table := packet("table", refs, `{"name":"t","schema":[{"name":"a","kind":1},{"name":"b","kind":1},{"name":"c","kind":3},`+
		`{"name":"d","kind":1},{"name":"e","kind":2},{"name":"f","kind":0}],"rows":3,"leafRows":256}`)
	if s := NewMemory(); s.AddPackets(append(slices.Clone(leaves), table)) != nil || s.NumChunks() != len(leaves)+1 {
		t.Fatalf("the well-formed table installed %d chunks", s.NumChunks())
	}
	leaf := refs[0]
	for _, forged := range []struct {
		name string
		p    Packet
	}{
		{"leaf data that is not JSON", packet("leaf", nil, `{"t":1,"v":[1,2,3]`)},
		{"the struct-array leaf older stores wrote", packet("leaf", nil, `[{"Kind":3,"S":"a"},{"Kind":1,"I":2},{"Kind":1,"I":3}]`)},
		{"a kind that is not a number", packet("leaf", nil, `{"t":"1","v":[1,2,3]}`)},
		{"v and dr", packet("leaf", nil, `{"t":1,"v":[1,2,3],"dr":[1,3]}`)},
		{"v and dict", packet("leaf", nil, `{"t":3,"v":["a","a","a"],"dict":["a"],"w":0,"p":""}`)},
		{"dr and dict", packet("leaf", nil, `{"t":1,"dr":[1,3],"dict":["a"],"w":0,"p":""}`)},
		{"a null dr beside v", packet("leaf", nil, `{"t":1,"v":[1,2,3],"dr":null}`)},
		{"v and p", packet("leaf", nil, `{"t":1,"v":[1,2,3],"lo":0,"w":0,"p":""}`)},
		{"dr and p", packet("leaf", nil, `{"t":1,"dr":[1,3],"lo":0,"w":0,"p":""}`)},
		{"decimal indexes", packet("leaf", nil, `{"t":3,"dict":["a"],"ix":[0,0,0]}`)},
		{"a dictionary without ix or p", packet("leaf", nil, `{"t":3,"dict":["a"]}`)},
		{"a dictionary in an INT leaf", packet("leaf", nil, `{"t":1,"dict":["a"],"lo":0,"w":0,"p":""}`)},
		{"a leaf with a ref", packet("leaf", []Hash{leaf}, `{"t":1,"v":[1,2,3]}`)},
		{"table data that is not JSON", packet("table", []Hash{leaf}, `{"name":"t"`)},
		{"table data with trailing bytes", packet("table", []Hash{leaf}, `{"name":"t","rows":3}x`)},
		{"a row count that is not a number", packet("table", []Hash{leaf}, `{"name":"t","schema":[{"name":"x","kind":1}],"rows":"3","leafRows":256}`)},
		{"a schema that is not a list", packet("table", []Hash{leaf}, `{"name":"t","schema":{"name":"x","kind":1},"rows":3,"leafRows":256}`)},
		{"a column kind that is not a number", packet("table", []Hash{leaf}, `{"name":"t","schema":[{"name":"x","kind":"INT"}],"rows":3,"leafRows":256}`)},
	} {
		s := NewMemory()
		for _, batch := range [][]Packet{{forged.p}, {leaves[0], forged.p, table}} {
			if err := s.AddPackets(batch); !errors.Is(err, ErrBadPacket) || s.NumChunks() != 0 {
				t.Errorf("%s: AddPackets = %v with %d chunks installed, want ErrBadPacket and none", forged.name, err, s.NumChunks())
			}
		}
	}
}

// TestForgedDBAndCommitChunksAreErrors: a db or commit chunk may be a
// peer's as well. AddPackets refuses a db packet whose data is not a
// db's fields, and AdoptCommit a stored commit whose refs or data no
// writer produces, or that pins a commit, naming it and leaving the
// root without a log; neither panics.
func TestForgedDBAndCommitChunksAreErrors(t *testing.T) {
	s := NewMemory()
	put := func(kind string, refs []Hash, data string) Hash {
		t.Helper()
		return mustPut(t, s, kind, refs, data)
	}
	leaf := put("leaf", nil, `{"t":1,"v":[1,2,3]}`)
	table := put("table", []Hash{leaf}, `{"name":"t","schema":[{"name":"x","kind":1}],"rows":3,"leafRows":256}`)
	good := put("db", []Hash{table}, `{"name":"d","tables":["t"]}`)
	for name, data := range map[string]string{
		"names that are not strings":  `{"name":"d","tables":[7]}`,
		"a name that is not a string": `{"name":1,"tables":["t"]}`,
		"db data that is not JSON":    `{"name":"d"`,
		"db data with trailing bytes": `{"name":"d","tables":["t"]}x`,
	} {
		p, err := appendChunk("db", []Hash{table}, []byte(data))
		if err != nil {
			t.Fatal(err)
		}
		if err := NewMemory().AddPackets([]Packet{{Hash: hashBytes(p), Data: p}}); !errors.Is(err, ErrBadPacket) {
			t.Errorf("%s: AddPackets = %v, want ErrBadPacket", name, err)
		}
	}

	commitData, err := appendCommitData("", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	commitWith := func(data string, refs ...Hash) Hash { return put("commit", refs, data) }
	commit := func(refs ...Hash) Hash { return commitWith(string(commitData), refs...) }
	for i, f := range []struct {
		name   string
		commit Hash
	}{
		{"a commit with no ref", commit()},
		{"a commit with two refs", commit(good, good)},
		{"a commit of a commit", commit(commit(good))},
		{"a commit of a commit with no ref", commit(commit())},
		{"commit data flagged 2", commitWith("\x02"+string(commitData[1:]), good)},
		{"commit data with a trailing byte", commitWith(string(commitData)+"\x00", good)},
		{"commit data with an overlong turn", commitWith("\x00\x80\x00\x01", good)},
		{"commit data short of its parent", commitWith("\x01"+string(commitData[1:]), good)},
		{"commit data in JSON", commitWith(`{"turn":0,"stamp":1}`, good)},
		{"no commit data", commitWith("", good)},
	} {
		root := fmt.Sprintf("forged/%d", i)
		_, err := adoptCommit(s, root, f.commit)
		var mal *MalformedChunkError
		if !errors.As(err, &mal) || mal.Chunk != f.commit {
			t.Errorf("%s: AdoptCommit = %v, want an error naming %s", f.name, err, f.commit)
		}
		if log, _ := s.Log(root); len(log) != 0 {
			t.Errorf("%s: the root's log holds %d commits", f.name, len(log))
		}
	}
	if c, err := adoptCommit(s, "data", commit(good)); err != nil || c.Tree != good {
		t.Fatalf("the well-formed commit: %+v, %v", c, err)
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
		_, err := adoptCommit(s, ordersFixtureRoot, f.commit)
		var mal *MalformedChunkError
		if !errors.As(err, &mal) || mal.Chunk != f.commit {
			t.Errorf("%s: AdoptCommit = %v, want an error naming %s", f.name, err, f.commit)
		}
		log, _ := s.Log(ordersFixtureRoot)
		if _, after := s.JournalSynced(); len(log) != 1 || s.stamp != stamp || after != size {
			t.Errorf("%s: the log holds %d commits, the stamp is %d (was %d), the journal %d bytes (was %d)", f.name, len(log), s.stamp, stamp, after, size)
		}
	}
	if _, err := adoptCommit(s, ordersFixtureRoot, forged[0].commit); !errors.Is(err, ErrUnknownChunk) {
		t.Errorf("the absent tree: %v, want ErrUnknownChunk", err)
	}

	// A well-formed commit is adopted, and the root pins its tree at its
	// turn.
	good := commit(head.Tree)
	if c, err := adoptCommit(s, ordersFixtureRoot, good); err != nil || c.Hash != good || c.Stamp != 9 {
		t.Fatalf("the well-formed commit: %+v, %v", c, err)
	}
	if c, err := s.AsOf(ordersFixtureRoot, 1); err != nil || c.Hash != good || c.Tree != first.Tree {
		t.Fatalf("as of turn 1: %+v, %v; want the adopted commit of tree %s", c, err, first.Tree)
	}
}
