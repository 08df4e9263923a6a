package storage

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// ColumnDef describes one column of a table schema.
type ColumnDef struct {
	Name string
	Kind Kind
	// Description is free-text metadata used by grounding and catalog
	// search (the paper's P2 requires schema descriptions the NL layer
	// can reason over).
	Description string
}

// Schema is an ordered list of column definitions.
type Schema []ColumnDef

// ColumnIndex returns the index of the named column (case-insensitive)
// or -1.
func (s Schema) ColumnIndex(name string) int {
	for i, c := range s {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// Names returns the column names in order.
func (s Schema) Names() []string {
	out := make([]string, len(s))
	for i, c := range s {
		out[i] = c.Name
	}
	return out
}

// Table is an in-memory columnar table: one typed Vector per schema
// column, all of equal length. A table is written only while it is
// built (AppendRow, one goroutine) and is read-only after that; it is
// safe for concurrent reads.
type Table struct {
	Name        string
	Description string
	schema      Schema
	cols        []*Vector
}

// NewTable creates an empty table with the given schema.
func NewTable(name string, schema Schema) *Table {
	t := &Table{Name: name, schema: schema, cols: make([]*Vector, len(schema))}
	for c, def := range schema {
		t.cols[c] = newVector(def.Kind)
	}
	return t
}

// Schema returns the table schema (callers must not mutate it).
func (t *Table) Schema() Schema { return t.schema }

// NumRows returns the row count.
func (t *Table) NumRows() int {
	if len(t.cols) == 0 {
		return 0
	}
	return t.cols[0].Len()
}

// NumCols returns the column count.
func (t *Table) NumCols() int { return len(t.schema) }

// AppendRow validates and appends one row. Values must match the
// column kinds (NULL is allowed anywhere); INT values are accepted in
// FLOAT columns and widened.
func (t *Table) AppendRow(row []Value) error {
	if len(row) != len(t.schema) {
		return fmt.Errorf("storage: row has %d values, schema has %d columns", len(row), len(t.schema))
	}
	for i, v := range row {
		fitted, err := fit(t.schema[i].Kind, v)
		if err != nil {
			return fmt.Errorf("storage: column %s %w", t.schema[i].Name, err)
		}
		row[i] = fitted
	}
	for i, v := range row {
		t.cols[i].push(v, false)
	}
	return nil
}

// MustAppendRow appends and panics on schema mismatch; intended for
// test fixtures and generators with statically known shapes.
func (t *Table) MustAppendRow(row ...Value) {
	if err := t.AppendRow(row); err != nil {
		// cdalint:ignore bare-panic -- Must* constructor over statically
		// shaped fixture rows; a mismatch is a programmer error, never
		// reachable from user input.
		panic(err)
	}
}

// At returns the value at (row, col) without bounds checking beyond
// the slice's own.
func (t *Table) At(row, col int) Value { return t.cols[col].At(row) }

// Vector returns column i as stored; callers must treat it as
// read-only. This is the zero-copy entry point for columnar execution
// and for the version store's leaf codec.
func (t *Table) Vector(i int) *Vector { return t.cols[i] }

// Column returns a fresh copy of column i as Values, for callers that
// want a cell at a time and run once; Vector is the column itself.
func (t *Table) Column(i int) []Value {
	col := t.cols[i]
	out := make([]Value, col.Len())
	for r := range out {
		out[r] = col.At(r)
	}
	return out
}

func (t *Table) vectorByName(name string) (*Vector, error) {
	i := t.schema.ColumnIndex(name)
	if i < 0 {
		return nil, fmt.Errorf("storage: table %s has no column %q", t.Name, name)
	}
	return t.cols[i], nil
}

// FloatColumn extracts the named column as float64s, skipping NULLs;
// the second return slice holds the row indices kept.
func (t *Table) FloatColumn(name string) ([]float64, []int, error) {
	col, err := t.vectorByName(name)
	if err != nil {
		return nil, nil, err
	}
	vals := make([]float64, 0, col.Len())
	rows := make([]int, 0, col.Len())
	for r := 0; r < col.Len(); r++ {
		f, ok := col.At(r).AsFloat()
		if !ok {
			continue
		}
		vals = append(vals, f)
		rows = append(rows, r)
	}
	return vals, rows, nil
}

// DistinctStrings returns the sorted distinct non-NULL string renderings
// of the named column. Useful for grounding value vocabularies. The
// slice is computed once per column and shared until the column is
// next written: callers must treat it as read-only.
func (t *Table) DistinctStrings(name string) ([]string, error) {
	col, err := t.vectorByName(name)
	if err != nil {
		return nil, err
	}
	if memo := col.distinct.Load(); memo != nil {
		return *memo, nil
	}
	set := make(map[string]struct{})
	for r := 0; r < col.Len(); r++ {
		if v := col.At(r); !v.IsNull() {
			set[v.String()] = struct{}{}
		}
	}
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	// Two readers racing here store equal slices.
	col.distinct.Store(&out)
	return out, nil
}

// FaultHook is the chaos-injection seam (see internal/faults): when
// non-nil it is consulted on every Get and may return an injected
// transient error or add latency. Production deployments leave it
// nil. It must be set before the database serves concurrent readers.
type FaultHook interface {
	Inject(op string) error
}

// Database is a named registry of tables, safe for concurrent use.
type Database struct {
	mu     sync.RWMutex
	Name   string
	tables map[string]*Table
	order  []string
	// Faults, when non-nil, injects deterministic chaos faults into
	// table lookups. Set once at wiring time, before concurrent use.
	Faults FaultHook
}

// NewDatabase creates an empty database.
func NewDatabase(name string) *Database {
	return &Database{Name: name, tables: make(map[string]*Table)}
}

// Put registers (or replaces) a table under its name.
func (db *Database) Put(t *Table) {
	db.mu.Lock()
	defer db.mu.Unlock()
	key := strings.ToLower(t.Name)
	if _, exists := db.tables[key]; !exists {
		db.order = append(db.order, key)
	}
	db.tables[key] = t
}

// Get returns the named table (case-insensitive).
func (db *Database) Get(name string) (*Table, error) {
	if db.Faults != nil {
		if err := db.Faults.Inject("storage.get"); err != nil {
			return nil, err
		}
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("storage: no table %q in database %s", name, db.Name)
	}
	return t, nil
}

// Tables returns all tables in registration order.
func (db *Database) Tables() []*Table {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]*Table, 0, len(db.order))
	for _, key := range db.order {
		out = append(out, db.tables[key])
	}
	return out
}
