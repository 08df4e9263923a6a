package storage

import (
	"encoding/csv"
	"fmt"
	"io"
)

// inferRows is how many data rows ReadCSV looks at to infer kinds.
const inferRows = 100

// ReadCSV loads a table from CSV. The first record is the header. If
// schema is nil, column kinds are inferred from up to the first 100
// data rows (preference INT > FLOAT > BOOL > TEXT); otherwise the
// provided schema must match the header width and is used as-is.
// Records stream into the table's vectors one at a time, and a TEXT
// value enters its column's dictionary as a copy, so that it does not
// keep its whole CSV line alive. The vectors are sealed at the end.
func ReadCSV(name string, r io.Reader, schema Schema) (*Table, error) {
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

// WriteCSV serializes the table as CSV with a header row. NULLs are
// written as empty fields.
func WriteCSV(t *Table, w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Schema().Names()); err != nil {
		return err
	}
	rec := make([]string, t.NumCols())
	for r := 0; r < t.NumRows(); r++ {
		for c := 0; c < t.NumCols(); c++ {
			v := t.At(r, c)
			if v.IsNull() {
				rec[c] = ""
			} else {
				rec[c] = v.String()
			}
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
