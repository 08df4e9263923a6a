package main

import (
	"fmt"
	"strings"

	"github.com/reliable-cda/cda/internal/analysis"
)

// selectAnalyzers applies the -only rule filter to the registry list,
// preserving registry order. Every name in the list must exist in the
// registry. An empty filter returns the full suite.
func selectAnalyzers(all []*analysis.Analyzer, only string) ([]*analysis.Analyzer, error) {
	if only == "" {
		return all, nil
	}
	want := map[string]bool{}
	for _, name := range strings.Split(only, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		found := false
		for _, a := range all {
			if a.Name == name {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown analyzer %q (use -list)", name)
		}
		want[name] = true
	}
	if len(want) == 0 {
		return nil, fmt.Errorf("empty rule list")
	}
	var out []*analysis.Analyzer
	for _, a := range all {
		if want[a.Name] {
			out = append(out, a)
		}
	}
	return out, nil
}
