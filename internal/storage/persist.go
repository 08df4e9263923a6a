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
// or the new one — never a truncated CSV that a reader would misread
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
