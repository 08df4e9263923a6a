package main

import (
	"strings"
	"testing"

	"github.com/reliable-cda/cda/internal/analysis"
)

func names(as []*analysis.Analyzer) []string {
	out := make([]string, len(as))
	for i, a := range as {
		out[i] = a.Name
	}
	return out
}

func TestSelectAnalyzersDefault(t *testing.T) {
	all := analysis.Analyzers()
	got, err := selectAnalyzers(all, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(all) {
		t.Errorf("default selection = %d analyzers, want all %d", len(got), len(all))
	}
}

func TestSelectAnalyzersOnly(t *testing.T) {
	all := analysis.Analyzers()
	got, err := selectAnalyzers(all, "fsync-order, resource-leak")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"resource-leak", "fsync-order"}
	if len(got) != 2 {
		t.Fatalf("selection = %v, want %v", names(got), want)
	}
	// Registry order is preserved regardless of argument order.
	if got[0].Name != "resource-leak" || got[1].Name != "fsync-order" {
		t.Errorf("selection order = %v, want %v", names(got), want)
	}
}

func TestSelectAnalyzersValidation(t *testing.T) {
	all := analysis.Analyzers()
	cases := []struct {
		only, wantErr string
	}{
		{"no-such-rule", "unknown analyzer"},
		{"resource-leak,no-such-rule", "unknown analyzer"},
		{" , ", "empty rule list"},
	}
	for _, tc := range cases {
		_, err := selectAnalyzers(all, tc.only)
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("selectAnalyzers(%q) error = %v, want containing %q",
				tc.only, err, tc.wantErr)
		}
	}
}
