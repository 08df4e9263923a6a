package storage

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"github.com/reliable-cda/cda/internal/framelog"
)

// manifest is the on-disk schema descriptor (schema.json) written
// next to the per-table CSV files.
type manifest struct {
	Name   string          `json:"name"`
	Tables []manifestTable `json:"tables"`
}

type manifestTable struct {
	Name        string           `json:"name"`
	Description string           `json:"description,omitempty"`
	Columns     []manifestColumn `json:"columns"`
}

type manifestColumn struct {
	Name        string `json:"name"`
	Kind        string `json:"kind"`
	Description string `json:"description,omitempty"`
}

// SaveDir persists the database as one CSV per table plus a
// schema.json manifest carrying the typed schema and descriptions
// (information a bare CSV loses). The directory is created if needed;
// existing files are overwritten. Every file is published atomically
// (framelog.Publish), so a crash mid-save leaves either the old file
// or the new one — never a truncated CSV that LoadDir would misread
// as a short table.
func SaveDir(db *Database, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("storage: creating %s: %w", dir, err)
	}
	m := manifest{Name: db.Name}
	for _, t := range db.Tables() {
		mt := manifestTable{Name: t.Name, Description: t.Description}
		for _, c := range t.Schema() {
			mt.Columns = append(mt.Columns, manifestColumn{
				Name: c.Name, Kind: c.Kind.String(), Description: c.Description,
			})
		}
		m.Tables = append(m.Tables, mt)
		if err := framelog.Publish(filepath.Join(dir, t.Name+".csv"), false, func(w io.Writer) error {
			return WriteCSV(t, w)
		}); err != nil {
			return fmt.Errorf("storage: writing %s: %w", t.Name, err)
		}
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	if err := framelog.Publish(filepath.Join(dir, "schema.json"), false, func(w io.Writer) error {
		_, werr := w.Write(data)
		return werr
	}); err != nil {
		return fmt.Errorf("storage: writing schema.json: %w", err)
	}
	return nil
}

// LoadDir restores a database saved with SaveDir. When schema.json is
// absent, every *.csv in the directory is loaded with inferred kinds.
func LoadDir(dir string) (*Database, error) {
	manifestPath := filepath.Join(dir, "schema.json")
	data, err := os.ReadFile(manifestPath)
	if os.IsNotExist(err) {
		return loadInferred(dir)
	}
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("storage: parsing %s: %w", manifestPath, err)
	}
	db := NewDatabase(m.Name)
	for _, mt := range m.Tables {
		schema := make(Schema, len(mt.Columns))
		for i, mc := range mt.Columns {
			kind, err := ParseKind(mc.Kind)
			if err != nil {
				return nil, fmt.Errorf("storage: table %s column %s: %w", mt.Name, mc.Name, err)
			}
			schema[i] = ColumnDef{Name: mc.Name, Kind: kind, Description: mc.Description}
		}
		f, err := os.Open(filepath.Join(dir, mt.Name+".csv"))
		if err != nil {
			return nil, err
		}
		t, err := ReadCSV(mt.Name, f, schema)
		cerr := f.Close()
		if err != nil {
			return nil, err
		}
		if cerr != nil {
			return nil, fmt.Errorf("storage: closing %s.csv: %w", mt.Name, cerr)
		}
		t.Description = mt.Description
		db.Put(t)
	}
	return db, nil
}

func loadInferred(dir string) (*Database, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	db := NewDatabase(filepath.Base(dir))
	loaded := 0
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".csv" {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		name := e.Name()[:len(e.Name())-len(".csv")]
		t, err := ReadCSV(name, f, nil)
		cerr := f.Close()
		if err != nil {
			return nil, err
		}
		if cerr != nil {
			return nil, fmt.Errorf("storage: closing %s: %w", e.Name(), cerr)
		}
		db.Put(t)
		loaded++
	}
	if loaded == 0 {
		return nil, fmt.Errorf("storage: no CSV files in %s", dir)
	}
	return db, nil
}
