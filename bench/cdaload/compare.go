package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// benchmarkFile is the part of BENCHMARK.json -compare needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// worsening is how much worse b is than a, as a share of a.
func worsening(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// spread is a metric's repetition range as a share of its median.
func spread(v metricValue) float64 {
	if len(v.Reps) < 2 || v.Value == 0 {
		return 0
	}
	lo, hi := v.Reps[0], v.Reps[0]
	for _, x := range v.Reps {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return (hi - lo) / v.Value
}

// allBetter reports whether every repetition of b reads better than
// every repetition of a.
func allBetter(a, b metricValue, better string) bool {
	if len(a.Reps) == 0 || len(b.Reps) == 0 {
		return false
	}
	for _, x := range a.Reps {
		for _, y := range b.Reps {
			if worsening(x, y, better) >= 0 {
				return false
			}
		}
	}
	return true
}

// compareFiles prints, per workload × end-to-end metric, both values,
// their ratio with its base, and the verdict against the bound:
// regression when b is worse than a by more than the bound,
// unresolved when it is not but either side's own repetitions spread
// wider than the bound (unless every repetition of b beats every one
// of a), pass otherwise. It returns 1 on any regression or digest
// mismatch.
func compareFiles(benchPath, aPath, bPath string) int {
	var bf benchmarkFile
	var a, b result
	for _, in := range []struct {
		path string
		v    any
	}{{benchPath, &bf}, {aPath, &a}, {bPath, &b}} {
		if err := readJSON(in.path, in.v); err != nil {
			fmt.Fprintf(os.Stderr, "cdaload: %v\n", err)
			return 2
		}
	}
	byName := map[string]workloadResult{}
	for _, w := range b.Workloads {
		byName[w.Name] = w
	}
	bad := 0
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			fmt.Printf("%s: missing from %s\n", wa.Name, bPath)
			bad++
			continue
		}
		fmt.Printf("== %s\n", wa.Name)
		if wa.OpDigest != wb.OpDigest || wa.CodeDigest != wb.CodeDigest {
			// %.12s, not [:12]: a repetition that lost a create has no digest.
			fmt.Printf("  DIGEST MISMATCH: op %.12s vs %.12s, code %.12s vs %.12s\n", wa.OpDigest, wb.OpDigest, wa.CodeDigest, wb.CodeDigest)
			bad++
		}
		if !wa.Correct || !wb.Correct {
			fmt.Printf("  INCORRECT RUN: a correct=%t, b correct=%t\n", wa.Correct, wb.Correct)
			bad++
		}
		for _, m := range bf.EndToEnd {
			va, vb := wa.EndToEnd[m.Name], wb.EndToEnd[m.Name]
			worse := worsening(va.Value, vb.Value, m.Better)
			verdict := "pass"
			switch {
			case worse > m.Bound:
				verdict = "REGRESSION"
				bad++
			case (spread(va) > m.Bound || spread(vb) > m.Bound) && !allBetter(va, vb, m.Better):
				verdict = "unresolved"
			}
			fmt.Printf("  %-26s a=%12.4f b=%12.4f %-6s b/a=%.3f (base a=%.4f) bound=%.2f spread a=%.3f b=%.3f  %s\n",
				m.Name, va.Value, vb.Value, m.Unit, ratio(vb.Value, va.Value), va.Value, m.Bound, spread(va), spread(vb), verdict)
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}
