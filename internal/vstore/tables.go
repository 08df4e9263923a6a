package vstore

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"

	"github.com/reliable-cda/cda/internal/storage"
)

// Merkle encoding of internal/storage databases.
//
// Layout (parent refs point down):
//
//	commit ─▶ db ─▶ table (per table, sorted by name)
//	                  └▶ leaf (per column, per row range, column-major)
//
// Leaves hold up to DefaultLeafRows values of ONE column. Content
// addressing makes equal leaves free: the encoder puts each, and the
// store dedups by hash. A data version is write-only: the encoder below
// is all of it, and nothing reads a table back from its chunks.
//
// A leaf's data takes one of these JSON forms, told apart by their keys:
//
//	{"t":1,"v":[17,null,-4]}                      plain: one kind, bare values
//	{"t":1,"dr":[1,256]}                          INT runs: 256 deltas of 1 from 0
//	{"t":1,"lo":1,"w":4,"p":"…"}                  INT packed: offsets from 1 in 4 bits
//	{"t":2,"lo":100,"w":17,"s":2,"p":"…"}         FLOAT packed: hundredths from 1.00
//	{"t":3,"dict":["east","west"],"w":1,"p":"…"}  TEXT dictionary, indexes packed
//
// encodeLeaf writes the shortest of the forms a span's kind has, ties
// going to plain, runs, dictionary and packed in that order; a span with
// a NULL, and a BOOL span, has only the plain one. A packed text "p" is
// the base64 of each value less the span's minimum "lo" in "w" bits,
// least-significant bit first; a FLOAT span packs the integers k its
// values are float64(k)/10^s of. parseLeaf refuses a leaf whose keys
// are of no form: what AddPackets asks of a peer's leaf.

// DefaultLeafRows is the row span of one column leaf.
const DefaultLeafRows = 256

// colDef mirrors storage.ColumnDef with stable JSON tags.
type colDef struct {
	Name string       `json:"name"`
	Kind storage.Kind `json:"kind"`
	Desc string       `json:"desc,omitempty"`
}

// tableData is the data field of a "table" chunk. Refs are the column
// leaves, column-major: all leaves of column 0, then column 1, …
type tableData struct {
	Name     string   `json:"name"`
	Desc     string   `json:"desc,omitempty"`
	Schema   []colDef `json:"schema"`
	Rows     int      `json:"rows"`
	LeafRows int      `json:"leafRows"`
}

// dbData is the data field of a "db" chunk. Refs are the table chunks
// aligned with Tables (canonically sorted by lowercased name, so two
// databases with equal content hash equally regardless of
// registration order).
type dbData struct {
	Name   string   `json:"name"`
	Tables []string `json:"tables"`
}

// decodeTableData reads a table chunk's data.
func decodeTableData(data []byte) (tableData, error) {
	var meta tableData
	err := json.Unmarshal(data, &meta)
	return meta, err
}

// decodeDBData reads a db chunk's data.
func decodeDBData(data []byte) (dbData, error) {
	var meta dbData
	err := json.Unmarshal(data, &meta)
	return meta, err
}

// leavesPerCol returns the leaf count covering rows; leafRows > 0.
func leavesPerCol(rows, leafRows int) int {
	n := rows / leafRows
	if rows%leafRows != 0 {
		n++
	}
	return n
}

// leafSpan returns how many of a column's rows leaf l holds.
func leafSpan(l, rows, leafRows int) int {
	return min(leafRows, rows-l*leafRows)
}

// encodeLeaf renders rows [lo, hi) of col as {"t": kind, "v": [bare
// values, null for NULL]}, t being 0 when all are NULL — or, for an INT,
// FLOAT or TEXT span with no NULL, in another form of its kind when that
// is shorter. The form is a function of the values alone: equal spans
// hash equal, whatever the column's kind or the rows around them. NaN
// and ±Inf have no JSON form and fail the encode.
func encodeLeaf(col *storage.Vector, lo, hi int) ([]byte, error) {
	if hi > lo && col.NullCount(lo, hi) == 0 {
		switch col.Kind() {
		case storage.KindInt:
			return encodeInts(col.Ints()[lo:hi]), nil
		case storage.KindFloat:
			if data := packFloats(col.Floats()[lo:hi]); data != nil {
				return data, nil
			}
		case storage.KindString:
			return encodeStrings(col.Dict(), col.Codes()[lo:hi])
		}
	}
	return plainLeaf(col, lo, hi)
}

// plainLeaf renders rows [lo, hi) of col in the plain form.
func plainLeaf(col *storage.Vector, lo, hi int) ([]byte, error) {
	kind, nulls := col.Kind(), col.NullCount(lo, hi)
	if nulls == hi-lo {
		kind = storage.KindNull
	}
	var isNull func(i int) bool // nil when the span holds no NULL
	if nulls > 0 {
		isNull = func(i int) bool { return col.IsNull(lo + i) }
	}
	var vals []byte
	var err error
	switch kind {
	case storage.KindInt:
		vals, err = marshalSpan(col.Ints()[lo:hi], isNull)
	case storage.KindFloat:
		vals, err = marshalSpan(col.Floats()[lo:hi], isNull)
	case storage.KindString:
		strs := make([]string, hi-lo)
		for i, k := range col.Codes()[lo:hi] {
			strs[i] = col.Dict()[k]
		}
		vals, err = marshalSpan(strs, isNull)
	case storage.KindBool:
		vals, err = marshalSpan(col.Bools()[lo:hi], isNull)
	default: // all NULL
		vals, err = json.Marshal(make([]*bool, hi-lo))
	}
	if err != nil {
		return nil, err
	}
	return fmt.Appendf(nil, `{"t":%d,"v":%s}`, int(kind), vals), nil
}

// marshalSpan writes the slice itself when it holds no NULL, and
// otherwise a slice of pointers into it, nil for NULL, so that
// json.Marshal writes the bare value or null. Both give a value the
// same text.
func marshalSpan[T any](vals []T, isNull func(i int) bool) ([]byte, error) {
	if isNull == nil {
		return json.Marshal(vals)
	}
	ptrs := make([]*T, len(vals))
	for i := range vals {
		if !isNull(i) {
			ptrs[i] = &vals[i]
		}
	}
	return json.Marshal(ptrs)
}

// encodeInts writes a non-empty INT span in the shortest of the plain
// form, its runs of equal deltas and its packed offsets, having counted
// the length of each.
func encodeInts(vals []int64) []byte {
	// Each number is written with a comma after it; the last becomes "]".
	plain, runs := len(`{"t":1,"v":[]}`)-1, len(`{"t":1,"dr":[]}`)-1
	for _, v := range vals {
		plain += digits(v) + 1
	}
	eachRun(vals, func(d, n int64) { runs += digits(d) + digits(n) + 2 })
	lo, w := intRange(vals)
	packed := len(`{"t":1,"lo":,"w":,"p":""}`) + digits(lo) + digits(int64(w)) + packedLen(len(vals), w)
	var out []byte
	switch {
	case plain <= runs && plain <= packed:
		out = append(make([]byte, 0, plain), `{"t":1,"v":[`...)
		for _, v := range vals {
			out = append(strconv.AppendInt(out, v, 10), ',')
		}
	case runs <= packed:
		out = append(make([]byte, 0, runs), `{"t":1,"dr":[`...)
		eachRun(vals, func(d, n int64) {
			out = append(strconv.AppendInt(append(strconv.AppendInt(out, d, 10), ','), n, 10), ',')
		})
	default:
		out = strconv.AppendInt(append(make([]byte, 0, packed), `{"t":1,"lo":`...), lo, 10)
		out = strconv.AppendInt(append(out, `,"w":`...), int64(w), 10)
		out = appendPacked(append(out, `,"p":"`...), len(vals), w, func(i int) uint64 { return uint64(vals[i] - lo) })
		return append(out, `"}`...)
	}
	return append(out[:len(out)-1], "]}"...)
}

// intRange returns the least of a non-empty vals and the bits its
// largest offset from it takes. The offsets wrap, so the widest span
// is 64 bits.
func intRange(vals []int64) (lo int64, w int) {
	lo, hi := vals[0], vals[0]
	for _, v := range vals {
		lo, hi = min(lo, v), max(hi, v)
	}
	return lo, bits.Len64(uint64(hi - lo))
}

// packedLen is the length of the base64 text of n values in w bits.
func packedLen(n, w int) int {
	return base64.RawStdEncoding.EncodedLen((n*w + 7) / 8)
}

// appendPacked appends the base64 text (RawStdEncoding) of off(0) …
// off(n-1), each below 2^w, written in w bits apiece from the
// least-significant bit of the first byte on; the bits after the last
// value are zero.
func appendPacked(out []byte, n, w int, off func(i int) uint64) []byte {
	raw := make([]byte, (n*w+7)/8)
	for i, bit := 0, 0; i < n && w > 0; i++ {
		v := off(i)
		for end := bit + w; bit < end; {
			raw[bit/8] |= byte(v << (bit % 8))
			step := min(8-bit%8, end-bit)
			v >>= step
			bit += step
		}
	}
	return base64.RawStdEncoding.AppendEncode(out, raw)
}

// pow10 holds 10^s for each scale a packed FLOAT leaf may have; every
// one is exact in a float64.
var pow10 = [...]float64{1, 10, 100, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9}

// maxScaled bounds |k| in a packed FLOAT leaf: every integer up to it is
// exact in a float64.
const maxScaled = 1 << 53

// scaled returns the smallest scale s at which every value is bit for
// bit float64(k)/10^s, k being the value times 10^s rounded and |k| ≤
// 2^53, with those k; ok is false when no scale fits. -0, NaN, ±Inf and
// a sum like 0.1+0.2 fit none.
func scaled(vals []float64) (s int, ks []int64, ok bool) {
	ks = make([]int64, len(vals))
	for s = range pow10 {
		i := 0
		for ; i < len(vals); i++ {
			k := math.Round(vals[i] * pow10[s])
			if !(math.Abs(k) <= maxScaled) || math.Float64bits(float64(int64(k))/pow10[s]) != math.Float64bits(vals[i]) {
				break
			}
			ks[i] = int64(k)
		}
		if i == len(vals) {
			return s, ks, true
		}
	}
	return 0, nil, false
}

// packFloats writes a non-empty FLOAT span packed when its values are
// decimals of at most nine places and that text is shorter than the
// plain one; it returns nil when the plain form is to be written. The
// plain text is measured only when a lower bound on its length — each
// value's integer digits, plus a point and a digit for a fraction — does
// not settle the choice, so a span of prices is never formatted.
func packFloats(vals []float64) []byte {
	s, ks, ok := scaled(vals)
	if !ok {
		return nil
	}
	lo, w := intRange(ks)
	packed := len(`{"t":2,"lo":,"w":,"s":0,"p":""}`) + digits(lo) + digits(int64(w)) + packedLen(len(ks), w)
	plain := len(`{"t":2,"v":[]}`) - 1
	for _, f := range vals {
		plain += digits(int64(f)) + 1
		if f != math.Trunc(f) {
			plain += 2
		}
	}
	if plain <= packed {
		text, err := json.Marshal(vals)
		if err != nil || len(`{"t":2,"v":}`)+len(text) <= packed {
			return nil
		}
	}
	out := strconv.AppendInt(append(make([]byte, 0, packed), `{"t":2,"lo":`...), lo, 10)
	out = strconv.AppendInt(append(out, `,"w":`...), int64(w), 10)
	out = strconv.AppendInt(append(out, `,"s":`...), int64(s), 10)
	out = appendPacked(append(out, `,"p":"`...), len(ks), w, func(i int) uint64 { return uint64(ks[i] - lo) })
	return append(out, `"}`...)
}

// digits is the length of v in decimal.
func digits(v int64) int {
	n, u := 1, uint64(v)
	if v < 0 {
		n, u = 2, -u
	}
	for ; u >= 10; u /= 10 {
		n++
	}
	return n
}

// eachRun calls f with each run of n equal deltas d in a non-empty
// vals, the first taken from 0. The differences wrap, so every INT
// span has runs.
func eachRun(vals []int64, f func(d, n int64)) {
	var prev, d, n int64
	for _, v := range vals {
		if n > 0 && v-prev != d {
			f(d, n)
			n = 0
		}
		d, prev, n = v-prev, v, n+1
	}
	f(d, n)
}

// encodeStrings writes a non-empty TEXT span, given as codes into the
// vector's dictionary, in the shorter of the plain form and a
// dictionary in first-appearance order with an index per row, the
// indexes packed in the bits the last of them takes. Each
// distinct string is marshalled once, and either form is assembled from
// those texts, so the plain one is json.Marshal's. A vector's
// dictionary holds no string twice, so renumbering its codes in order
// of first appearance gives the dictionary the strings themselves would.
func encodeStrings(colDict []string, codes []uint32) ([]byte, error) {
	at := make(map[uint32]int32, len(codes))
	dict := make([]string, 0, len(codes))
	ix := make([]int32, len(codes))
	for i, c := range codes {
		k, ok := at[c]
		if !ok {
			k = int32(len(dict))
			at[c] = k
			dict = append(dict, colDict[c])
		}
		ix[i] = k
	}
	list, err := json.Marshal(dict)
	if err != nil {
		return nil, err
	}
	// Cut the list into its strings: each ends at the first quote no
	// backslash escapes, and a comma or the closing bracket follows it.
	texts := make([][]byte, len(dict))
	for k, rest := 0, list[1:]; k < len(dict); k++ {
		i := 1
		for ; rest[i] != '"'; i++ {
			if rest[i] == '\\' {
				i++
			}
		}
		texts[k], rest = rest[:i+1], rest[i+2:]
	}
	plain := len(`{"t":3,"v":[]}`) - 1
	for _, k := range ix {
		plain += len(texts[k]) + 1
	}
	w := bits.Len(uint(len(dict) - 1))
	dictLen := len(`{"t":3,"dict":,"w":,"p":""}`) + len(list) + digits(int64(w)) + packedLen(len(ix), w)
	if dictLen < plain {
		out := append(append(make([]byte, 0, dictLen), `{"t":3,"dict":`...), list...)
		out = strconv.AppendInt(append(out, `,"w":`...), int64(w), 10)
		out = appendPacked(append(out, `,"p":"`...), len(ix), w, func(i int) uint64 { return uint64(ix[i]) })
		return append(out, `"}`...), nil
	}
	out := append(make([]byte, 0, plain), `{"t":3,"v":[`...)
	for _, k := range ix {
		out = append(append(out, texts[k]...), ',')
	}
	return append(out[:len(out)-1], "]}"...), nil
}

// leafFields are a leaf's JSON fields, each form's among them.
type leafFields struct {
	T    storage.Kind    `json:"t"`
	V    json.RawMessage `json:"v"`
	DR   json.RawMessage `json:"dr"`
	Dict json.RawMessage `json:"dict"`
	P    json.RawMessage `json:"p"`
	Lo   int64           `json:"lo"`
	W    int             `json:"w"`
	S    int             `json:"s"`
}

// parseLeaf reads a leaf's fields and refuses any that no form has
// together: what a leaf's data must be before its row range is known.
func parseLeaf(data []byte) (leafFields, error) {
	var leaf leafFields
	if err := json.Unmarshal(data, &leaf); err != nil {
		return leaf, err
	}
	forms := 0
	for _, form := range []json.RawMessage{leaf.V, leaf.DR, leaf.P} {
		if form != nil {
			forms++
		}
	}
	switch {
	case forms > 1:
		return leaf, fmt.Errorf("leaf has more than one of v, dr and p")
	case leaf.Dict != nil && leaf.P == nil:
		return leaf, fmt.Errorf("leaf has a dictionary and no p")
	case leaf.Dict != nil && leaf.T != storage.KindString:
		return leaf, fmt.Errorf("%s leaf has a dictionary", leaf.T)
	}
	return leaf, nil
}

// encodeSpanMin is the leaf count from which encodeTable encodes a
// table's leaves on every core; below it, as for every table of the
// demonstration domain, it encodes them inline.
const encodeSpanMin = 64

// encodeTable writes a table as a Merkle tree and returns the table
// chunk's address. The leaves are encoded — leaf, chunk, address —
// in one contiguous span of the column-major leaf order per GOMAXPROCS
// worker, and then put in that order by the calling goroutine, so the
// staged chunks, the journal and the fault schedule are a serial
// encode's. A leaf that fails to encode fails the table after every
// leaf before it has been put, as the serial encode did.
func encodeTable(b *Batch, t *storage.Table) (Hash, error) {
	const leafRows = DefaultLeafRows
	rows := t.NumRows()
	schema := t.Schema()
	nLeaves := leavesPerCol(rows, leafRows)
	leaves := make([]encodedLeaf, nLeaves*len(schema))
	encoded, encErr := encodeSpans(len(leaves), func(i int) error {
		c, lo := i/nLeaves, i%nLeaves*leafRows
		hi := lo + leafSpan(i%nLeaves, rows, leafRows)
		data, err := encodeLeaf(t.Vector(c), lo, hi)
		if err != nil {
			return fmt.Errorf("vstore: encode leaf %s[%d][%d:%d]: %w", t.Name, c, lo, hi, err)
		}
		leaves[i].hash, leaves[i].payload, err = encodeChunk("leaf", nil, data)
		return err
	})
	refs := make([]Hash, 0, len(leaves))
	for _, leaf := range leaves[:encoded] {
		if err := b.putEncoded(leaf.hash, leaf.payload, nil); err != nil {
			return "", err
		}
		refs = append(refs, leaf.hash)
	}
	if encErr != nil {
		return "", encErr
	}
	meta := tableData{Name: t.Name, Desc: t.Description, Rows: rows, LeafRows: leafRows}
	for _, cd := range schema {
		meta.Schema = append(meta.Schema, colDef{Name: cd.Name, Kind: cd.Kind, Desc: cd.Description})
	}
	data, err := json.Marshal(meta)
	if err != nil {
		return "", fmt.Errorf("vstore: encode table %s: %w", t.Name, err)
	}
	return b.Put("table", refs, data)
}

// encodedLeaf is one leaf chunk's address and payload.
type encodedLeaf struct {
	hash    Hash
	payload []byte
}

// encodeSpans runs encode over [0, n) and returns how many of the first
// indexes succeeded, with the error of the one after them. From
// encodeSpanMin indexes on it cuts [0, n) into one contiguous span per
// GOMAXPROCS worker, each stopping at its first error; the lowest
// span's error wins, so the count and the error are a serial run's
// whatever the width.
func encodeSpans(n int, encode func(i int) error) (int, error) {
	spans := 1
	if n >= encodeSpanMin {
		spans = min(runtime.GOMAXPROCS(0), n)
	}
	span := func(lo, hi int) (int, error) {
		for i := lo; i < hi; i++ {
			if err := encode(i); err != nil {
				return i, err
			}
		}
		return hi, nil
	}
	if spans == 1 {
		return span(0, n)
	}
	ends := make([]int, spans)
	errs := make([]error, spans)
	var wg sync.WaitGroup
	for i := range spans {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ends[i], errs[i] = span(i*n/spans, (i+1)*n/spans)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return ends[i], err
		}
	}
	return n, nil
}

// encodeDatabase writes every table of db and returns the db chunk's
// address. Tables are encoded in canonical (lowercased-name) order.
func encodeDatabase(b *Batch, db *storage.Database) (Hash, error) {
	tables := db.Tables()
	sort.Slice(tables, func(i, j int) bool {
		return strings.ToLower(tables[i].Name) < strings.ToLower(tables[j].Name)
	})
	meta := dbData{Name: db.Name, Tables: make([]string, 0, len(tables))}
	refs := make([]Hash, 0, len(tables))
	for _, t := range tables {
		h, err := encodeTable(b, t)
		if err != nil {
			return "", err
		}
		refs = append(refs, h)
		meta.Tables = append(meta.Tables, t.Name)
	}
	data, err := json.Marshal(meta)
	if err != nil {
		return "", fmt.Errorf("vstore: encode db %s: %w", db.Name, err)
	}
	return b.Put("db", refs, data)
}

// CommitDatabase encodes db and commits it to the named root at the
// given turn in one batch, returning the new commit.
func (s *Store) CommitDatabase(root string, db *storage.Database, turn int) (Commit, error) {
	b := s.NewBatch(nil)
	tree, err := encodeDatabase(b, db)
	if err != nil {
		return Commit{}, err
	}
	return b.Commit(root, tree, turn)
}
