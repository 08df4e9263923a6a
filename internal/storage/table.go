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

// Table is an in-memory columnar table. Values are stored column-wise;
// all columns always have equal length. Table is safe for concurrent
// reads; writes must be externally serialized (the engine appends only
// during loading).
type Table struct {
	Name        string
	Description string
	schema      Schema
	cols        [][]Value
}

// NewTable creates an empty table with the given schema.
func NewTable(name string, schema Schema) *Table {
	t := &Table{Name: name, schema: schema, cols: make([][]Value, len(schema))}
	return t
}

// TableFromColumns builds a table over cols, one slice per schema
// column, without copying them: the table owns them afterwards. It
// enforces what AppendRow enforces — columns of one length, every cell
// NULL or its column's kind, INT cells in a FLOAT column widened.
func TableFromColumns(name string, schema Schema, cols [][]Value) (*Table, error) {
	if len(cols) != len(schema) {
		return nil, fmt.Errorf("storage: %d columns of values, schema has %d columns", len(cols), len(schema))
	}
	for c, col := range cols {
		if len(col) != len(cols[0]) {
			return nil, fmt.Errorf("storage: column %s has %d rows, column %s has %d", schema[c].Name, len(col), schema[0].Name, len(cols[0]))
		}
		want := schema[c].Kind
		for r, v := range col {
			switch {
			case v.IsNull() || v.Kind == want:
			case want == KindFloat && v.Kind == KindInt:
				col[r] = Float(float64(v.I))
			default:
				return nil, fmt.Errorf("storage: column %s wants %s, got %s in row %d", schema[c].Name, want, v.Kind, r)
			}
		}
	}
	return &Table{Name: name, schema: schema, cols: cols}, nil
}

// Schema returns the table schema (callers must not mutate it).
func (t *Table) Schema() Schema { return t.schema }

// NumRows returns the row count.
func (t *Table) NumRows() int {
	if len(t.cols) == 0 {
		return 0
	}
	return len(t.cols[0])
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
		if v.IsNull() {
			continue
		}
		want := t.schema[i].Kind
		if v.Kind == want {
			continue
		}
		if want == KindFloat && v.Kind == KindInt {
			row[i] = Float(float64(v.I))
			continue
		}
		return fmt.Errorf("storage: column %s wants %s, got %s", t.schema[i].Name, want, v.Kind)
	}
	for i, v := range row {
		t.cols[i] = append(t.cols[i], v)
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
func (t *Table) At(row, col int) Value { return t.cols[col][row] }

// Row materializes row i as a fresh slice.
func (t *Table) Row(i int) []Value {
	out := make([]Value, len(t.cols))
	for c := range t.cols {
		out[c] = t.cols[c][i]
	}
	return out
}

// Column returns the backing slice for column i; callers must treat it
// as read-only.
func (t *Table) Column(i int) []Value { return t.cols[i] }

// Columns returns the backing column slices in schema order; callers
// must treat them as read-only. This is the zero-copy entry point for
// columnar (batch-at-a-time) execution: the SQL engine's vectorized
// scan operates directly over these slices instead of materializing
// per-row value slices.
func (t *Table) Columns() [][]Value { return t.cols }

// Kinds returns the schema kinds in column order. AppendRow enforces
// that every stored cell is either NULL or its column's kind, so
// vectorized kernels may specialize on these kinds safely.
func (t *Table) Kinds() []Kind {
	out := make([]Kind, len(t.schema))
	for i, c := range t.schema {
		out[i] = c.Kind
	}
	return out
}

// ColumnByName returns the backing slice for the named column.
func (t *Table) ColumnByName(name string) ([]Value, error) {
	i := t.schema.ColumnIndex(name)
	if i < 0 {
		return nil, fmt.Errorf("storage: table %s has no column %q", t.Name, name)
	}
	return t.cols[i], nil
}

// FloatColumn extracts the named column as float64s, skipping NULLs;
// the second return slice holds the row indices kept.
func (t *Table) FloatColumn(name string) ([]float64, []int, error) {
	col, err := t.ColumnByName(name)
	if err != nil {
		return nil, nil, err
	}
	vals := make([]float64, 0, len(col))
	rows := make([]int, 0, len(col))
	for i, v := range col {
		f, ok := v.AsFloat()
		if !ok {
			continue
		}
		vals = append(vals, f)
		rows = append(rows, i)
	}
	return vals, rows, nil
}

// DistinctStrings returns the sorted distinct non-NULL string renderings
// of the named column. Useful for grounding value vocabularies.
func (t *Table) DistinctStrings(name string) ([]string, error) {
	col, err := t.ColumnByName(name)
	if err != nil {
		return nil, err
	}
	set := make(map[string]struct{})
	for _, v := range col {
		if v.IsNull() {
			continue
		}
		set[v.String()] = struct{}{}
	}
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
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

// TableNames returns the registered table names in registration order.
func (db *Database) TableNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.order))
	for _, key := range db.order {
		out = append(out, db.tables[key].Name)
	}
	return out
}
