package vstore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

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

// requireSameDB requires got to hold want's tables cell for cell.
func requireSameDB(t testing.TB, got, want *storage.Database) {
	t.Helper()
	if fmt.Sprint(got.TableNames()) != fmt.Sprint(want.TableNames()) {
		t.Fatalf("tables %v, want %v", got.TableNames(), want.TableNames())
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

// requireRoundTrip encodes all of col, requires the typed form, and
// requires the decode to return col's values and to encode to the same
// bytes again.
func requireRoundTrip(t testing.TB, col *storage.Vector) []byte {
	t.Helper()
	data := mustEncode(t, col, 0, col.Len())
	if !json.Valid(data) || data[0] != '{' || strings.Contains(string(data), "Kind") {
		t.Fatalf("encoded %#v as %s, want the typed form", values(col), data)
	}
	got, err := decodeLeaf(data)
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

// TestLeafRoundTrip: every span of a vector takes the typed form and
// comes back bit for bit, written from the slice itself or through
// pointers; a legacy leaf reads as the vector it can be or not at all;
// what JSON cannot carry behaves as it did before the typed form.
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
		direct, viaPointers := mustEncode(t, col, 0, len(dense)), mustEncode(t, col, 0, len(dense)+1)
		if want := strings.TrimSuffix(string(direct), "]}") + ",null]}"; string(viaPointers) != want {
			t.Fatalf("span with a trailing NULL = %s, without it %s", viaPointers, direct)
		}
	}
	requireRoundTrip(t, mustVector(t, storage.KindInt, nil))

	// Equal spans encode equal, whatever vector they sit in.
	a := []storage.Value{storage.Int(1), storage.Null(), storage.Int(3), storage.Int(4)}
	b := mustVector(t, storage.KindInt, append(append([]storage.Value{storage.Int(99)}, a...), storage.Int(5)))
	if x, y := requireRoundTrip(t, mustVector(t, storage.KindInt, a)), mustEncode(t, b, 1, 5); !bytes.Equal(x, y) {
		t.Fatalf("equal spans encoded as %s and %s", x, y)
	}
	nulls := make([]storage.Value, 3)
	if x, y := requireRoundTrip(t, mustVector(t, storage.KindNull, nulls)), requireRoundTrip(t, mustVector(t, storage.KindFloat, nulls)); !bytes.Equal(x, y) {
		t.Fatalf("all-NULL spans encoded as %s and %s", x, y)
	}

	// The struct-array form is only read. A leaf no column could have
	// held is refused; fields a value's kind does not use are dropped.
	for name, c := range map[string]struct {
		leaf, want []storage.Value
	}{
		"mixed kinds":    {leaf: []storage.Value{storage.Int(1), storage.Str("one")}},
		"int and float":  {leaf: []storage.Value{storage.Int(1), storage.Float(1)}},
		"float and int":  {leaf: []storage.Value{storage.Float(1), storage.Int(1)}},
		"unknown kind":   {leaf: []storage.Value{{Kind: 9, I: 1}}},
		"one kind":       {leaf: a, want: a},
		"stray I":        {leaf: []storage.Value{storage.Str("s"), {Kind: storage.KindString, S: "s", I: 7}}, want: []storage.Value{storage.Str("s"), storage.Str("s")}},
		"stray on NULL":  {leaf: []storage.Value{storage.Int(1), {B: true}}, want: []storage.Value{storage.Int(1), storage.Null()}},
		"stray F on int": {leaf: []storage.Value{{Kind: storage.KindInt, I: 1, F: 0.5}}, want: []storage.Value{storage.Int(1)}},
		"stray -0":       {leaf: []storage.Value{{Kind: storage.KindInt, I: 2, F: math.Copysign(0, -1)}}, want: []storage.Value{storage.Int(2)}},
	} {
		data, err := json.Marshal(c.leaf)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeLeaf(data)
		if c.want == nil {
			if err == nil {
				t.Errorf("%s: decoded %s as %#v", name, data, values(got))
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: decode %s: %v", name, data, err)
		}
		requireSameValues(t, name, values(got), c.want)
		requireRoundTrip(t, got)
	}

	// Invalid UTF-8 becomes U+FFFD in both forms, as json.Marshal of the
	// struct array always did; the replaced string is then stable.
	invalid := []storage.Value{storage.Str("a\xffb\xc3")}
	legacy, err := json.Marshal(invalid)
	if err != nil {
		t.Fatal(err)
	}
	for _, data := range [][]byte{legacy, mustEncode(t, mustVector(t, storage.KindString, invalid), 0, 1)} {
		got, err := decodeLeaf(data)
		if err != nil || got.At(0) != storage.Str("a\ufffdb\ufffd") {
			t.Fatalf("invalid UTF-8 came back from %s as %#v, %v", data, got, err)
		}
		requireRoundTrip(t, got)
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

// FuzzDecodeLeaf: arbitrary bytes never panic the leaf decoder, and
// whatever it accepts — what a vector can hold — re-encodes to bytes
// that decode to the same values and are a fixed point of the codec.
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
	for _, seed := range []string{
		``, `null`, `[]`, `{}`, `[null]`, `{"t":1}`, `{"t":1,"v":null}`, `{"t":0,"v":[null,0]}`,
		`{"t":5,"v":[]}`, `{"t":-1,"v":[]}`, `{"t":1,"v":[1.5]}`, `{"t":1,"v":[9223372036854775808]}`,
		`{"t":2,"v":[1e999]}`, `{"t":2,"v":[-0,1E+2]}`, `{"t":3,"v":["\ud800",7]}`, `{"t":4,"v":[true,null,"x"]}`,
		`{"t":3,"v":["a"],"v":["b"]}`, `[{"Kind":9,"S":"x"},{"kind":1,"i":2}]`, `[{"Kind":2,"F":1e999}]`, ` [1]`,
		`[{"F":-0}]`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		col, err := decodeLeaf(data)
		if err != nil {
			return
		}
		enc, err := encodeLeaf(col, 0, col.Len())
		if err != nil {
			t.Fatalf("decoded %q to %#v, which does not encode: %v", data, values(col), err)
		}
		again, err := decodeLeaf(enc)
		if err != nil {
			t.Fatalf("decoded %q, re-encoded as %s, which does not decode: %v", data, enc, err)
		}
		requireSameValues(t, string(enc), values(again), values(col))
		if fixed, err := encodeLeaf(again, 0, again.Len()); err != nil || !bytes.Equal(fixed, enc) {
			t.Fatalf("%s re-encodes as %s, %v", enc, fixed, err)
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

// TestOpensParentLeaves opens the journal the parent commit wrote —
// every leaf an array of structs — and requires both versions to
// materialize equal to the generator's, before and after this code
// commits the same data on top as a tree of typed leaves; between the
// two encodings of one version Diff finds no changed row.
func TestOpensParentLeaves(t *testing.T) {
	dir := copyLeafFixture(t, leafFixtureV1)
	s := openDir(t, dir)
	old, err := s.Log(leafFixtureRoot)
	if err != nil || len(old) != 2 {
		t.Fatalf("fixture log = %+v, %v; want two commits", old, err)
	}
	want := commitLeafFixture(t, NewMemory())
	requireOldVersions := func(s *Store) {
		t.Helper()
		for turn, c := range old {
			db, at, err := s.DatabaseAsOf(leafFixtureRoot, turn)
			if err != nil || at != c {
				t.Fatalf("as of turn %d: commit %+v, %v; want %+v", turn, at, err, c)
			}
			requireSameDB(t, db, want[turn])
		}
	}
	requireOldVersions(s)

	// A struct-array leaf materializes to the vector a typed leaf does,
	// so each old version committed again is leaf-v2's tree, hash for
	// hash — the fixture's no-NULL spans marshalled from the slice, its
	// NULL-bearing ones through pointers.
	v2 := openDir(t, copyLeafFixture(t, leafFixtureV2))
	pinned, err := v2.Log(leafFixtureRoot)
	if err != nil || len(pinned) != len(old) {
		t.Fatalf("leaf-v2 log = %+v, %v", pinned, err)
	}
	for turn := range old {
		fromV1, _, err := s.DatabaseAsOf(leafFixtureRoot, turn)
		if err != nil {
			t.Fatal(err)
		}
		fromV2, _, err := v2.DatabaseAsOf(leafFixtureRoot, turn)
		if err != nil {
			t.Fatal(err)
		}
		requireSameDB(t, fromV1, fromV2)
		again, err := NewMemory().CommitDatabase(leafFixtureRoot, fromV1, turn)
		if err != nil || again.Tree != pinned[turn].Tree {
			t.Fatalf("turn %d read from leaf-v1 commits as tree %s, %v; leaf-v2 has %s", turn, again.Tree, err, pinned[turn].Tree)
		}
	}

	// The same content re-committed is a new tree (typed leaves hash
	// differently) beside the old one, which stays readable.
	chunks := s.NumChunks()
	head, err := s.CommitDatabase(leafFixtureRoot, want[1], 2)
	if err != nil {
		t.Fatal(err)
	}
	if head.Tree == old[1].Tree || s.NumChunks() <= chunks {
		t.Fatalf("re-commit reused tree %s (%d → %d chunks): the fixture holds no old-form leaves?", head.Tree, chunks, s.NumChunks())
	}
	rep, err := s.Diff(old[1].Hash, head.Hash)
	if err != nil || len(rep.Tables) != 1 {
		t.Fatalf("diff across encodings = %+v, %v", rep, err)
	}
	if td := rep.Tables[0]; td.SchemaChanged || len(td.ChangedRows)+td.RowsAdded+td.RowsRemoved != 0 {
		t.Fatalf("diff between two encodings of one table: %+v", td)
	}
	rep, err = s.Diff(old[0].Hash, head.Hash)
	if err != nil || len(rep.Tables) != 1 || fmt.Sprint(rep.Tables[0].ChangedRows) != "[100]" || rep.Tables[0].RowsAdded != 2 {
		t.Fatalf("diff from the old encoding of version 0 = %+v, %v; want row 100 changed, 2 added", rep, err)
	}
	// Committing it once more is the no-op it has to be on every restart.
	chunks = s.NumChunks()
	if again, err := s.CommitDatabase(leafFixtureRoot, want[1], 2); err != nil || again != head || s.NumChunks() != chunks {
		t.Fatalf("second re-commit = %+v, %v (%d → %d chunks); want %+v and nothing written", again, err, chunks, s.NumChunks(), head)
	}

	reopened := openDir(t, dir)
	requireOldVersions(reopened)
	db, at, err := reopened.DatabaseAsOf(leafFixtureRoot, 2)
	if err != nil || at != head {
		t.Fatalf("as of turn 2 after reopen: %+v, %v", at, err)
	}
	requireSameDB(t, db, want[1])
}

// TestWritesV2LeafBytes pins the bytes this code journals for the
// fixture's two commits, and reads them back.
func TestWritesV2LeafBytes(t *testing.T) {
	dir := t.TempDir()
	s := openDir(t, dir)
	want := commitLeafFixture(t, s)
	got, err := os.ReadFile(filepath.Join(dir, packName))
	if err != nil {
		t.Fatal(err)
	}
	pinned, err := os.ReadFile(filepath.Join(leafFixtureV2, packName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pinned) {
		t.Errorf("journal is %d bytes, sha256 %s; fixture has %d bytes, sha256 %s", len(got), hashBytes(got), len(pinned), hashBytes(pinned))
	}
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
	fixture := openDir(t, copyLeafFixture(t, leafFixtureV2))
	for turn := range want {
		db, _, err := fixture.DatabaseAsOf(leafFixtureRoot, turn)
		if err != nil {
			t.Fatal(err)
		}
		requireSameDB(t, db, want[turn])
	}
}

// TestLeafBytesPerValue holds the journal of an orders-shaped table —
// the benchmark's scan_heavy CSV: int id, c%04d customer, eight region
// names, 1–12, a two-decimal amount — to 8 bytes per value, envelopes,
// hashes and frames included (the struct-array form took ~44).
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
	if info.Size() > 8*values {
		t.Fatalf("journal is %d bytes for %d values, want at most 8 per value", info.Size(), values)
	}
	got, err := s.MaterializeDatabase(c.Tree)
	if err != nil {
		t.Fatal(err)
	}
	requireSameDB(t, got, db)
}

// TestForgedTableChunkIsAnError: AddPackets verifies a chunk's hash,
// not its shape, so every reader of a table tree must turn a malformed
// one into an error — none of these may panic.
func TestForgedTableChunkIsAnError(t *testing.T) {
	s := NewMemory()
	put := func(kind string, refs []Hash, data string) Hash {
		t.Helper()
		return mustPut(t, s, kind, refs, data)
	}
	ints := put("leaf", nil, `{"t":1,"v":[1,2,3]}`)
	good := put("table", []Hash{ints}, `{"name":"t","schema":[{"name":"x","kind":1}],"rows":3,"leafRows":256}`)
	if tab, err := s.MaterializeTable(good); err != nil || tab.NumRows() != 3 {
		t.Fatalf("the well-formed table: %v", err)
	}
	table := func(leaf Hash, schemaKind int, rows, leafRows int) Hash {
		return put("table", []Hash{leaf}, fmt.Sprintf(`{"name":"t","schema":[{"name":"x","kind":%d}],"rows":%d,"leafRows":%d}`, schemaKind, rows, leafRows))
	}
	cols4 := `{"name":"a","kind":1},{"name":"b","kind":1},{"name":"c","kind":1},{"name":"d","kind":1}`
	strs := put("leaf", nil, `[{"Kind":3,"S":"a"},{"Kind":1,"I":2},{"Kind":1,"I":3}]`)
	for _, forged := range []struct {
		name string
		h    Hash
		// badShape: the table chunk itself is refused, so Diff fails too;
		// otherwise the fault lies in a leaf, which Diff reads only where
		// the two versions' leaf hashes differ.
		badShape bool
	}{
		{"leafRows 0", table(ints, 1, 3, 0), true},
		{"negative rows", table(ints, 1, -5, 256), true},
		{"too few leaf refs", table(ints, 1, 600, 256), true},
		{"too many leaf refs", put("table", []Hash{ints, ints}, `{"name":"t","schema":[{"name":"x","kind":1}],"rows":3,"leafRows":256}`), true},
		{"rows without columns", put("table", nil, `{"name":"t","rows":3,"leafRows":256}`), true},
		{"leaves × columns overflows", put("table", []Hash{ints, ints, ints, ints}, `{"name":"t","schema":[`+cols4+`],"rows":4611686018427387904,"leafRows":1}`), true},
		{"schema kind out of range", table(ints, 9, 3, 256), true},
		{"leaf shorter than its row range", table(ints, 1, 4, 256), false},
		{"leaf longer than its row range", table(ints, 1, 2, 256), false},
		{"row count no leaf backs", table(ints, 1, 1<<40, 1<<40), false},
		{"typed leaf of another kind than the column", table(ints, 3, 3, 256), false},
		{"untyped leaf of another kind than the column", table(strs, 1, 3, 256), false},
		{"leaf ref to a table chunk", table(good, 1, 3, 256), false},
		{"leaf that does not decode", table(put("leaf", nil, `{"t":1,"v":[1,"2",3]}`), 1, 3, 256), false},
	} {
		if tab, err := s.MaterializeTable(forged.h); err == nil {
			t.Errorf("%s: materialized %d rows", forged.name, tab.NumRows())
		}
		// Against the well-formed table, in both directions.
		for _, pair := range [][2]Hash{{good, forged.h}, {forged.h, good}} {
			a := put("db", []Hash{pair[0]}, `{"name":"d","tables":["t"]}`)
			b := put("db", []Hash{pair[1]}, `{"name":"d","tables":["t"]}`)
			if rep, err := s.Diff(a, b); err == nil && forged.badShape {
				t.Errorf("%s: diffed as %+v", forged.name, rep)
			}
		}
	}
	// diffRowsFull, the path for two tables chunked differently.
	a := put("db", []Hash{good}, `{"name":"d","tables":["t"]}`)
	b := put("db", []Hash{table(ints, 1, 4, 128)}, `{"name":"d","tables":["t"]}`)
	if rep, err := s.Diff(a, b); err == nil {
		t.Errorf("short leaf under another leafRows: diffed as %+v", rep)
	}
}

// TestDiffAcrossLeafForms: a leaf in the struct-array form and a typed
// leaf of the same values differ in hash and in nothing else.
func TestDiffAcrossLeafForms(t *testing.T) {
	s := NewMemory()
	col := []storage.Value{storage.Float(1.5), storage.Null(), storage.Float(-2)}
	untyped, err := json.Marshal(col)
	if err != nil {
		t.Fatal(err)
	}
	typed := mustEncode(t, mustVector(t, storage.KindFloat, col), 0, 3)
	col[2] = storage.Float(2)
	edited := mustEncode(t, mustVector(t, storage.KindFloat, col), 0, 3)
	const meta = `{"name":"t","schema":[{"name":"x","kind":2}],"rows":3,"leafRows":256}`
	var tables []Hash
	for _, leaf := range [][]byte{untyped, typed, edited} {
		h := mustPut(t, s, "leaf", nil, string(leaf))
		tables = append(tables, mustPut(t, s, "table", []Hash{h}, meta))
	}
	if td, err := s.diffTable("t", tables[0], tables[1]); err != nil || td.ChangedRows != nil {
		t.Fatalf("struct-array vs typed leaf of equal values: %+v, %v", td, err)
	}
	if td, err := s.diffTable("t", tables[0], tables[2]); err != nil || fmt.Sprint(td.ChangedRows) != "[2]" {
		t.Fatalf("struct-array vs edited typed leaf: %+v, %v; want row 2", td, err)
	}
}
