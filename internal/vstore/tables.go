package vstore

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"github.com/reliable-cda/cda/internal/storage"
)

// Merkle encoding of internal/storage databases.
//
// Layout (parent refs point down):
//
//	commit ─▶ db ─▶ table (per table, sorted by name)
//	                  └▶ leaf (per column, per row range, column-major)
//
// Leaves hold up to LeafRows values of ONE column, so editing one row
// rewrites one leaf per column plus the table, db, and commit nodes —
// O(columns · log-ish path), not O(table). Content addressing makes
// the unchanged leaves free: the encoder re-puts them and the store
// dedups by hash.
//
// A leaf's data takes one of two JSON forms, told apart by the first
// byte:
//
//	{"t":1,"v":[17,null,-4]}                      typed: one kind, bare values
//	[{"Kind":1,"I":17,"F":0,"S":"","B":false},…]  legacy: one struct per value
//
// encodeLeaf writes only the first, which is what a storage.Vector holds
// in memory; decodeLeaf reads both, so a journal never needs rewriting.

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
// values, null for NULL]}, t being 0 when all are NULL. The form is a
// function of the values alone: equal spans hash equal, whatever the
// column's kind or the rows around them. NaN and ±Inf have no JSON
// form and fail the encode.
func encodeLeaf(col *storage.Vector, lo, hi int) ([]byte, error) {
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
		vals, err = marshalSpan(col.Strings()[lo:hi], isNull)
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

// decodeLeaf reads a leaf in either form into a vector of the leaf's
// kind (KindNull when every value is NULL). A legacy leaf must hold
// what a vector can, values of one kind and NULLs; a field its value's
// kind does not use is dropped.
func decodeLeaf(data []byte) (*storage.Vector, error) {
	if len(data) > 0 && data[0] == '[' {
		var vals []storage.Value
		if err := json.Unmarshal(data, &vals); err != nil {
			return nil, err
		}
		kind := storage.KindNull
		for i, v := range vals {
			switch {
			case v.IsNull() || v.Kind == kind:
			case kind == storage.KindNull && v.Kind >= storage.KindInt && v.Kind <= storage.KindBool:
				kind = v.Kind
			default:
				return nil, fmt.Errorf("value %d of a %s leaf is %s", i, kind, v.Kind)
			}
		}
		return vectorOf(kind, vals)
	}
	var leaf struct {
		T storage.Kind    `json:"t"`
		V json.RawMessage `json:"v"`
	}
	if err := json.Unmarshal(data, &leaf); err != nil {
		return nil, err
	}
	switch leaf.T {
	case storage.KindInt:
		return unpack(leaf.T, leaf.V, storage.Int)
	case storage.KindFloat:
		return unpack(leaf.T, leaf.V, storage.Float)
	case storage.KindString:
		return unpack(leaf.T, leaf.V, storage.Str)
	case storage.KindBool:
		return unpack(leaf.T, leaf.V, storage.Bool)
	case storage.KindNull:
		var nulls []any
		if err := json.Unmarshal(leaf.V, &nulls); err != nil {
			return nil, err
		}
		for i, v := range nulls {
			if v != nil {
				return nil, fmt.Errorf("value %d of an all-NULL leaf is not null", i)
			}
		}
		return vectorOf(leaf.T, make([]storage.Value, len(nulls)))
	default:
		return nil, fmt.Errorf("leaf kind %d", int(leaf.T))
	}
}

// unpack decodes a typed leaf's values, null becoming NULL.
func unpack[T any](kind storage.Kind, raw []byte, value func(T) storage.Value) (*storage.Vector, error) {
	var ptrs []*T
	if err := json.Unmarshal(raw, &ptrs); err != nil {
		return nil, err
	}
	col := storage.NewVector(kind, len(ptrs))
	for _, p := range ptrs {
		v := storage.Null()
		if p != nil {
			v = value(*p)
		}
		if err := col.Append(v); err != nil {
			return nil, err
		}
	}
	return col, nil
}

// vectorOf builds a vector of the given kind from vals.
func vectorOf(kind storage.Kind, vals []storage.Value) (*storage.Vector, error) {
	col := storage.NewVector(kind, len(vals))
	for i, v := range vals {
		if err := col.Append(v); err != nil {
			return nil, fmt.Errorf("value %d: %w", i, err)
		}
	}
	return col, nil
}

// chunkWriter is where an encoder puts the nodes of the tree it
// builds: a Batch, or in tests the Store itself, chunk by chunk.
type chunkWriter interface {
	Put(kind string, refs []Hash, data []byte) (Hash, error)
}

// encodeTable writes a table as a Merkle tree and returns the table
// chunk's address.
func encodeTable(w chunkWriter, t *storage.Table, leafRows int) (Hash, error) {
	if leafRows <= 0 {
		leafRows = DefaultLeafRows
	}
	rows := t.NumRows()
	schema := t.Schema()
	nLeaves := leavesPerCol(rows, leafRows)
	refs := make([]Hash, 0, nLeaves*len(schema))
	for c := 0; c < len(schema); c++ {
		col := t.Vector(c)
		for l := 0; l < nLeaves; l++ {
			lo := l * leafRows
			hi := lo + leafSpan(l, rows, leafRows)
			data, err := encodeLeaf(col, lo, hi)
			if err != nil {
				return "", fmt.Errorf("vstore: encode leaf %s[%d][%d:%d]: %w", t.Name, c, lo, hi, err)
			}
			h, err := w.Put("leaf", nil, data)
			if err != nil {
				return "", err
			}
			refs = append(refs, h)
		}
	}
	meta := tableData{Name: t.Name, Desc: t.Description, Rows: rows, LeafRows: leafRows}
	for _, cd := range schema {
		meta.Schema = append(meta.Schema, colDef{Name: cd.Name, Kind: cd.Kind, Desc: cd.Description})
	}
	data, err := json.Marshal(meta)
	if err != nil {
		return "", fmt.Errorf("vstore: encode table %s: %w", t.Name, err)
	}
	return w.Put("table", refs, data)
}

// encodeDatabase writes every table of db and returns the db chunk's
// address. Tables are encoded in canonical (lowercased-name) order.
func encodeDatabase(w chunkWriter, db *storage.Database, leafRows int) (Hash, error) {
	tables := db.Tables()
	sort.Slice(tables, func(i, j int) bool {
		return strings.ToLower(tables[i].Name) < strings.ToLower(tables[j].Name)
	})
	meta := dbData{Name: db.Name, Tables: make([]string, 0, len(tables))}
	refs := make([]Hash, 0, len(tables))
	for _, t := range tables {
		h, err := encodeTable(w, t, leafRows)
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
	return w.Put("db", refs, data)
}

// CommitDatabase encodes db and commits it to the named root at the
// given turn in one batch, returning the new commit.
func (s *Store) CommitDatabase(root string, db *storage.Database, turn int) (Commit, error) {
	b := s.NewBatch()
	tree, err := encodeDatabase(b, db, DefaultLeafRows)
	if err != nil {
		return Commit{}, err
	}
	return b.Commit(root, tree, turn)
}

// loadTable reads a table chunk and checks everything its readers index
// or allocate by: the chunk may be a peer's, and AddPackets verifies a
// packet's hash, not its shape.
func (s *Store) loadTable(h Hash) (tableData, []Hash, error) {
	var meta tableData
	kind, err := s.Data(h, &meta)
	if err != nil {
		return meta, nil, err
	}
	if kind != "table" {
		return meta, nil, fmt.Errorf("vstore: chunk %s is %q, want table", h, kind)
	}
	refs, err := s.Refs(h)
	if err != nil {
		return meta, nil, err
	}
	if meta.Rows < 0 || meta.LeafRows <= 0 {
		return meta, nil, fmt.Errorf("vstore: table chunk %s has rows %d, leafRows %d", h, meta.Rows, meta.LeafRows)
	}
	for _, cd := range meta.Schema {
		if cd.Kind < storage.KindNull || cd.Kind > storage.KindBool {
			return meta, nil, fmt.Errorf("vstore: table chunk %s: column %s has kind %d", h, cd.Name, int(cd.Kind))
		}
	}
	// The first test keeps a forged row count from overflowing the product.
	nLeaves, nCols := leavesPerCol(meta.Rows, meta.LeafRows), len(meta.Schema)
	if nLeaves > len(refs) || nLeaves*nCols != len(refs) {
		return meta, nil, fmt.Errorf("vstore: table chunk %s has %d leaves, want %d for each of %d columns", h, len(refs), nLeaves, nCols)
	}
	return meta, refs, nil
}

// leaf reads one column leaf, which must hold exactly want values.
func (s *Store) leaf(h Hash, want int) (*storage.Vector, error) {
	env, err := s.get(h)
	if err != nil {
		return nil, err
	}
	if env.K != "leaf" {
		return nil, fmt.Errorf("vstore: chunk %s is %q, want leaf", h, env.K)
	}
	vals, err := decodeLeaf(env.D)
	if err != nil {
		return nil, fmt.Errorf("vstore: decode leaf %s: %w", h, err)
	}
	if vals.Len() != want {
		return nil, fmt.Errorf("vstore: leaf %s holds %d values, its row range %d", h, vals.Len(), want)
	}
	return vals, nil
}

// MaterializeTable rebuilds a table from its chunk address.
func (s *Store) MaterializeTable(h Hash) (*storage.Table, error) {
	meta, refs, err := s.loadTable(h)
	if err != nil {
		return nil, err
	}
	nLeaves := leavesPerCol(meta.Rows, meta.LeafRows)
	schema := make(storage.Schema, 0, len(meta.Schema))
	for _, cd := range meta.Schema {
		schema = append(schema, storage.ColumnDef{Name: cd.Name, Kind: cd.Kind, Description: cd.Desc})
	}
	cols := make([]*storage.Vector, len(schema))
	for c, cd := range schema {
		cols[c] = storage.NewVector(cd.Kind, 0)
		for l := 0; l < nLeaves; l++ {
			vals, err := s.leaf(refs[c*nLeaves+l], leafSpan(l, meta.Rows, meta.LeafRows))
			if err != nil {
				return nil, err
			}
			if l == 0 {
				// Sized only now: a full first leaf shows the row count
				// is backed by chunks, not just claimed.
				cols[c] = storage.NewVector(cd.Kind, meta.Rows)
			}
			if err := cols[c].Extend(vals); err != nil {
				return nil, fmt.Errorf("vstore: materialize table %s: leaf %s: %w", meta.Name, refs[c*nLeaves+l], err)
			}
		}
	}
	t, err := storage.TableFromColumns(meta.Name, schema, cols)
	if err != nil {
		return nil, fmt.Errorf("vstore: materialize table %s: %w", meta.Name, err)
	}
	t.Description = meta.Desc
	return t, nil
}

// MaterializeDatabase rebuilds a database from a db or commit chunk
// address — an immutable snapshot ready for internal/sqldb execution.
func (s *Store) MaterializeDatabase(h Hash) (*storage.Database, error) {
	h, err := s.resolveTree(h)
	if err != nil {
		return nil, err
	}
	var meta dbData
	kind, err := s.Data(h, &meta)
	if err != nil {
		return nil, err
	}
	if kind != "db" {
		return nil, fmt.Errorf("vstore: chunk %s is %q, want db", h, kind)
	}
	refs, err := s.Refs(h)
	if err != nil {
		return nil, err
	}
	if len(refs) != len(meta.Tables) {
		return nil, fmt.Errorf("vstore: db chunk %s has %d refs, %d names", h, len(refs), len(meta.Tables))
	}
	db := storage.NewDatabase(meta.Name)
	for _, ref := range refs {
		t, err := s.MaterializeTable(ref)
		if err != nil {
			return nil, err
		}
		db.Put(t)
	}
	return db, nil
}

// DatabaseAsOf materializes the snapshot of a root as of the given
// turn — the time-travel read path.
func (s *Store) DatabaseAsOf(root string, turn int) (*storage.Database, Commit, error) {
	c, err := s.AsOf(root, turn)
	if err != nil {
		return nil, Commit{}, err
	}
	db, err := s.MaterializeDatabase(c.Tree)
	if err != nil {
		return nil, Commit{}, err
	}
	return db, c, nil
}

// ResolveTree follows a commit chunk to the tree it pins; non-commit
// chunks pass through unchanged.
func (s *Store) ResolveTree(h Hash) (Hash, error) { return s.resolveTree(h) }

// resolveTree follows a commit chunk to its tree; other kinds pass
// through unchanged.
func (s *Store) resolveTree(h Hash) (Hash, error) {
	kind, err := s.Kind(h)
	if err != nil {
		return "", err
	}
	if kind != "commit" {
		return h, nil
	}
	refs, err := s.Refs(h)
	if err != nil {
		return "", err
	}
	if len(refs) != 1 {
		return "", fmt.Errorf("vstore: commit chunk %s has %d refs, want 1", h, len(refs))
	}
	return refs[0], nil
}
