package main

import (
	"bytes"
	"encoding/json"
	"go/token"
	"testing"

	"github.com/reliable-cda/cda/internal/analysis"
)

func sampleFindings() []analysis.Finding {
	return []analysis.Finding{
		{
			Rule:     "ctx-propagation",
			Severity: analysis.SeverityError,
			Pos:      token.Position{Filename: "internal/core/respond.go", Line: 42, Column: 7},
			Message:  "context.Background() mints a fresh root context",
		},
		{
			Rule:     "raw-sleep",
			Severity: analysis.SeverityWarning,
			Pos:      token.Position{Filename: "internal/faults/faults.go", Line: 9, Column: 2},
			Message:  "time.Sleep bypasses the injected clock",
		},
	}
}

// TestSARIFShape: the SARIF document is valid JSON with the 2.1.0
// version marker, one run, rule metadata for every analyzer, and one
// result per finding with its physical location.
func TestSARIFShape(t *testing.T) {
	in := sampleFindings()
	var buf bytes.Buffer
	if err := writeSARIF(&buf, in); err != nil {
		t.Fatalf("writeSARIF: %v", err)
	}
	var got sarifReport
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("decoding emitted sarif: %v", err)
	}
	if got.Version != "2.1.0" {
		t.Errorf("version = %q, want 2.1.0", got.Version)
	}
	if len(got.Runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(got.Runs))
	}
	run := got.Runs[0]
	if run.Tool.Driver.Name != "cdalint" {
		t.Errorf("driver name = %q", run.Tool.Driver.Name)
	}
	if len(run.Tool.Driver.Rules) != len(analysis.Analyzers()) {
		t.Errorf("rules = %d, want %d", len(run.Tool.Driver.Rules), len(analysis.Analyzers()))
	}
	if len(run.Results) != len(in) {
		t.Fatalf("results = %d, want %d", len(run.Results), len(in))
	}
	r := run.Results[0]
	if r.RuleID != "ctx-propagation" || r.Level != "error" {
		t.Errorf("result 0 = %+v", r)
	}
	loc := r.Locations[0].PhysicalLocation
	if loc.ArtifactLocation.URI != "internal/core/respond.go" || loc.Region.StartLine != 42 {
		t.Errorf("location 0 = %+v", loc)
	}
}
