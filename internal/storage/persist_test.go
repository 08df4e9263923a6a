package storage

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db := NewDatabase("hr")
	tbl := testTable(t)
	tbl.Description = "test employees"
	db.Put(tbl)
	if err := SaveDir(db, dir); err != nil {
		t.Fatal(err)
	}
	m := readManifest(t, dir)
	if m.Name != "hr" || len(m.Tables) != 1 || m.Tables[0].Name != "emp" {
		t.Fatalf("manifest = %+v", m)
	}
	if m.Tables[0].Description != "test employees" {
		t.Errorf("description = %q", m.Tables[0].Description)
	}
	// The typed schema is recorded exactly (no inference drift: the
	// float column stays FLOAT even though its values could parse as INT).
	for i, c := range tbl.Schema() {
		if got := m.Tables[0].Columns[i]; got.Name != c.Name || got.Kind != c.Kind.String() {
			t.Errorf("column %d = %+v, want %s %v", i, got, c.Name, c.Kind)
		}
	}
	f, err := os.Open(filepath.Join(dir, "emp.csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lt, err := ReadCSV("emp", f, tbl.Schema())
	if err != nil {
		t.Fatal(err)
	}
	if lt.NumRows() != tbl.NumRows() {
		t.Fatalf("rows = %d", lt.NumRows())
	}
	for r := 0; r < tbl.NumRows(); r++ {
		for c := 0; c < tbl.NumCols(); c++ {
			if !lt.At(r, c).Equal(tbl.At(r, c)) && !(lt.At(r, c).IsNull() && tbl.At(r, c).IsNull()) {
				t.Errorf("cell (%d,%d) = %v, want %v", r, c, lt.At(r, c), tbl.At(r, c))
			}
		}
	}
}

func TestSaveDirSchemaPreservesIntColumnWithRoundValues(t *testing.T) {
	dir := t.TempDir()
	db := NewDatabase("x")
	tbl := NewTable("t", Schema{{Name: "f", Kind: KindFloat}})
	tbl.MustAppendRow(Float(100)) // would infer as INT without manifest
	db.Put(tbl)
	if err := SaveDir(db, dir); err != nil {
		t.Fatal(err)
	}
	if got := readManifest(t, dir).Tables[0].Columns[0].Kind; got != "FLOAT" {
		t.Errorf("kind = %v, want FLOAT", got)
	}
}

// readManifest decodes the schema.json that SaveDir wrote to dir.
func readManifest(t *testing.T, dir string) manifest {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "schema.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestProfile(t *testing.T) {
	tbl := testTable(t)
	stats := Profile(tbl)
	if len(stats) != 3 {
		t.Fatalf("stats = %d cols", len(stats))
	}
	id := stats[0]
	if id.Distinct != 3 || id.Nulls != 0 || !id.HasNumeric || id.Min != 1 || id.Max != 3 || id.Mean != 2 {
		t.Errorf("id stats = %+v", id)
	}
	name := stats[1]
	if name.HasNumeric || name.Distinct != 3 || len(name.TopValues) != 3 {
		t.Errorf("name stats = %+v", name)
	}
	sal := stats[2]
	if sal.Nulls != 1 || !sal.HasNumeric || sal.Min != 80.25 || sal.Max != 100.5 {
		t.Errorf("salary stats = %+v", sal)
	}
}

func TestProfileTopValuesOrdering(t *testing.T) {
	tbl := NewTable("t", Schema{{Name: "s", Kind: KindString}})
	for i := 0; i < 3; i++ {
		tbl.MustAppendRow(Str("common"))
	}
	tbl.MustAppendRow(Str("rare"))
	st := Profile(tbl)[0]
	if st.TopValues[0].Value != "common" || st.TopValues[0].Count != 3 {
		t.Errorf("top values = %v", st.TopValues)
	}
}

func TestProfileEmptyTable(t *testing.T) {
	tbl := NewTable("e", Schema{{Name: "x", Kind: KindInt}})
	st := Profile(tbl)[0]
	if st.HasNumeric || st.Distinct != 0 || st.Min != 0 || st.Max != 0 {
		t.Errorf("empty stats = %+v", st)
	}
}
