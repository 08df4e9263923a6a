package vstore

import (
	"fmt"
	"sort"
	"strings"
)

// TableDiff describes how one table changed between two versions.
type TableDiff struct {
	Table string `json:"table"`
	// Added / Removed mark the whole table appearing or disappearing.
	Added   bool `json:"added,omitempty"`
	Removed bool `json:"removed,omitempty"`
	// SchemaChanged marks a column-definition change; row diffs are
	// not attempted across schemas.
	SchemaChanged bool `json:"schemaChanged,omitempty"`
	// ChangedRows lists indices (ascending) whose values differ over
	// the shared row prefix.
	ChangedRows []int `json:"changedRows,omitempty"`
	// RowsAdded / RowsRemoved count rows beyond the shared prefix.
	RowsAdded   int `json:"rowsAdded,omitempty"`
	RowsRemoved int `json:"rowsRemoved,omitempty"`
}

// DiffReport lists per-table changes between two versions, sorted by
// table name. An empty Tables slice means the versions are identical.
type DiffReport struct {
	From   Hash        `json:"from"`
	To     Hash        `json:"to"`
	Tables []TableDiff `json:"tables,omitempty"`
}

// Diff compares two versions (db or commit chunk addresses). The
// Merkle structure keeps it O(changed data): identical subtree hashes
// are skipped without decoding; only differing leaves are compared
// row by row.
func (s *Store) Diff(from, to Hash) (DiffReport, error) {
	rep := DiffReport{From: from, To: to}
	a, err := s.resolveTree(from)
	if err != nil {
		return rep, err
	}
	b, err := s.resolveTree(to)
	if err != nil {
		return rep, err
	}
	if a == b {
		return rep, nil
	}
	aTabs, err := s.dbTables(a)
	if err != nil {
		return rep, err
	}
	bTabs, err := s.dbTables(b)
	if err != nil {
		return rep, err
	}
	names := make([]string, 0, len(aTabs)+len(bTabs))
	for n := range aTabs {
		names = append(names, n)
	}
	for n := range bTabs {
		if _, ok := aTabs[n]; !ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		ah, inA := aTabs[n]
		bh, inB := bTabs[n]
		switch {
		case !inA:
			rep.Tables = append(rep.Tables, TableDiff{Table: n, Added: true})
		case !inB:
			rep.Tables = append(rep.Tables, TableDiff{Table: n, Removed: true})
		case ah != bh:
			td, err := s.diffTable(n, ah, bh)
			if err != nil {
				return rep, err
			}
			rep.Tables = append(rep.Tables, td)
		}
	}
	return rep, nil
}

// dbTables maps lowercased table name → table chunk for a db chunk.
func (s *Store) dbTables(h Hash) (map[string]Hash, error) {
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
	out := make(map[string]Hash, len(refs))
	for i, name := range meta.Tables {
		out[strings.ToLower(name)] = refs[i]
	}
	return out, nil
}

// diffTable compares two versions of one table.
func (s *Store) diffTable(name string, ah, bh Hash) (TableDiff, error) {
	td := TableDiff{Table: name}
	am, aRefs, err := s.loadTable(ah)
	if err != nil {
		return td, err
	}
	bm, bRefs, err := s.loadTable(bh)
	if err != nil {
		return td, err
	}
	if !schemaEqual(am.Schema, bm.Schema) {
		td.SchemaChanged = true
		return td, nil
	}
	if bm.Rows > am.Rows {
		td.RowsAdded = bm.Rows - am.Rows
	}
	if am.Rows > bm.Rows {
		td.RowsRemoved = am.Rows - bm.Rows
	}
	common := am.Rows
	if bm.Rows < common {
		common = bm.Rows
	}
	if common == 0 || am.LeafRows != bm.LeafRows {
		// Different chunking parameters defeat leaf-level pruning;
		// fall back to whole-table comparison over the shared prefix.
		if common > 0 {
			return s.diffRowsFull(td, ah, bh, common)
		}
		return td, nil
	}
	aLeaves := leavesPerCol(am.Rows, am.LeafRows)
	bLeaves := leavesPerCol(bm.Rows, bm.LeafRows)
	nCols := len(am.Schema)
	commonLeaves := leavesPerCol(common, am.LeafRows)
	changed := map[int]bool{}
	for l := 0; l < commonLeaves; l++ {
		for c := 0; c < nCols; c++ {
			la := aRefs[c*aLeaves+l]
			lb := bRefs[c*bLeaves+l]
			if la == lb {
				continue
			}
			av, err := s.leaf(la, leafSpan(l, am.Rows, am.LeafRows))
			if err != nil {
				return td, err
			}
			bv, err := s.leaf(lb, leafSpan(l, bm.Rows, bm.LeafRows))
			if err != nil {
				return td, err
			}
			// The longer version's tail leaf runs past the shared
			// prefix; those rows are already counted as added/removed.
			for i := 0; i < min(av.Len(), bv.Len()); i++ {
				if av.At(i) != bv.At(i) {
					changed[l*am.LeafRows+i] = true
				}
			}
		}
	}
	td.ChangedRows = sortedKeys(changed)
	return td, nil
}

// diffRowsFull materializes both versions and compares the shared row
// prefix cell by cell (fallback when chunking parameters differ).
func (s *Store) diffRowsFull(td TableDiff, ah, bh Hash, common int) (TableDiff, error) {
	at, err := s.MaterializeTable(ah)
	if err != nil {
		return td, err
	}
	bt, err := s.MaterializeTable(bh)
	if err != nil {
		return td, err
	}
	for r := 0; r < common; r++ {
		for c := 0; c < at.NumCols(); c++ {
			if at.At(r, c) != bt.At(r, c) {
				td.ChangedRows = append(td.ChangedRows, r)
				break
			}
		}
	}
	return td, nil
}

func schemaEqual(a, b []colDef) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sortedKeys(m map[int]bool) []int {
	if len(m) == 0 {
		return nil
	}
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
