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

// leavesPerCol returns the leaf count covering rows.
func leavesPerCol(rows, leafRows int) int {
	if rows == 0 {
		return 0
	}
	return (rows + leafRows - 1) / leafRows
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
		col := t.Column(c)
		for l := 0; l < nLeaves; l++ {
			lo := l * leafRows
			hi := lo + leafRows
			if hi > rows {
				hi = rows
			}
			data, err := json.Marshal(col[lo:hi])
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

// MaterializeTable rebuilds a table from its chunk address.
func (s *Store) MaterializeTable(h Hash) (*storage.Table, error) {
	var meta tableData
	kind, err := s.Data(h, &meta)
	if err != nil {
		return nil, err
	}
	if kind != "table" {
		return nil, fmt.Errorf("vstore: chunk %s is %q, want table", h, kind)
	}
	refs, err := s.Refs(h)
	if err != nil {
		return nil, err
	}
	nLeaves := leavesPerCol(meta.Rows, meta.LeafRows)
	if len(refs) != nLeaves*len(meta.Schema) {
		return nil, fmt.Errorf("vstore: table chunk %s has %d leaves, want %d", h, len(refs), nLeaves*len(meta.Schema))
	}
	schema := make(storage.Schema, 0, len(meta.Schema))
	for _, cd := range meta.Schema {
		schema = append(schema, storage.ColumnDef{Name: cd.Name, Kind: cd.Kind, Description: cd.Desc})
	}
	cols := make([][]storage.Value, len(schema))
	for c := range schema {
		col := make([]storage.Value, 0, meta.Rows)
		for l := 0; l < nLeaves; l++ {
			var vals []storage.Value
			leafKind, err := s.Data(refs[c*nLeaves+l], &vals)
			if err != nil {
				return nil, err
			}
			if leafKind != "leaf" {
				return nil, fmt.Errorf("vstore: chunk %s is %q, want leaf", refs[c*nLeaves+l], leafKind)
			}
			col = append(col, vals...)
		}
		if len(col) != meta.Rows {
			return nil, fmt.Errorf("vstore: table %s column %d has %d rows, want %d", meta.Name, c, len(col), meta.Rows)
		}
		cols[c] = col
	}
	t := storage.NewTable(meta.Name, schema)
	t.Description = meta.Desc
	for r := 0; r < meta.Rows; r++ {
		row := make([]storage.Value, len(schema))
		for c := range schema {
			row[c] = cols[c][r]
		}
		if err := t.AppendRow(row); err != nil {
			return nil, fmt.Errorf("vstore: materialize table %s row %d: %w", meta.Name, r, err)
		}
	}
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
