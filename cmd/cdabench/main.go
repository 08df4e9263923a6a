// Command cdabench regenerates the experiments in EXPERIMENTS.md and
// prints the result tables. Use -only to run a subset and -quick for
// smaller workloads; `cdabench -h` lists the experiment ids, from the
// same list that runs them.
//
// Usage:
//
//	cdabench [-only e1,e5] [-quick] [-seed 1]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"github.com/reliable-cda/cda/internal/experiments"
	"github.com/reliable-cda/cda/internal/workload"
)

// selectIDs parses an -only list against the runner ids: empty selects
// everything, an id no runner has is an error naming the ones there
// are.
func selectIDs(ids []string, only string) (map[string]bool, error) {
	selected := map[string]bool{}
	for _, id := range strings.Split(only, ",") {
		id = strings.ToLower(strings.TrimSpace(id))
		if id == "" {
			continue
		}
		if !slices.Contains(ids, id) {
			return nil, fmt.Errorf("unknown experiment %q (valid: %s)", id, strings.Join(ids, ", "))
		}
		selected[id] = true
	}
	if len(selected) == 0 {
		for _, id := range ids {
			selected[id] = true
		}
	}
	return selected, nil
}

func main() {
	ctx := context.Background()
	quick := flag.Bool("quick", false, "smaller workloads for a fast smoke run")
	seed := flag.Int64("seed", 1, "random seed")

	n := func(full int) int {
		v := full
		if *quick {
			v = int(float64(full) * 0.2)
		}
		if v < 20 {
			v = 20
		}
		return v
	}

	type runner struct {
		id  string
		run func() (fmt.Stringer, error)
	}
	runners := []runner{
		{"e1", func() (fmt.Stringer, error) {
			r, err := experiments.RunE1(ctx, *seed)
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
		{"e2", func() (fmt.Stringer, error) {
			p := workload.DefaultVectorParams()
			p.Seed = *seed
			if *quick {
				p.N, p.Queries = 4000, 40
			}
			r, err := experiments.RunE2(p, 10)
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
		{"e2b", func() (fmt.Stringer, error) {
			p := workload.DefaultVectorParams()
			p.Seed = *seed
			p.Queries = 50
			sizes := []int{5000, 20000, 50000}
			if *quick {
				sizes = []int{2000, 8000}
			}
			r, err := experiments.RunE2Sweep(sizes, p, 10)
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
		{"e3", func() (fmt.Stringer, error) {
			r, err := experiments.RunE3(n(300), 0.8, 0.05, *seed)
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
		{"e4", func() (fmt.Stringer, error) {
			r, err := experiments.RunE4(n(300), *seed)
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
		{"e5", func() (fmt.Stringer, error) {
			r, err := experiments.RunE5(n(600), 0.2, *seed)
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
		{"e6", func() (fmt.Stringer, error) {
			sessions := 20
			if *quick {
				sessions = 5
			}
			r, err := experiments.RunE6(ctx, sessions, 6, *seed)
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
		{"e7", func() (fmt.Stringer, error) {
			r, err := experiments.RunE7(n(300), 0.3, 0.1, *seed)
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
		{"e8", func() (fmt.Stringer, error) {
			r, err := experiments.RunE8(ctx, 0.15, *seed)
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
		{"e9", func() (fmt.Stringer, error) {
			r, err := experiments.RunE9(n(240), *seed)
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
		{"e10", func() (fmt.Stringer, error) {
			r, err := experiments.RunE10(3, n(100)/4+10, *seed)
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
		{"scorecard", func() (fmt.Stringer, error) {
			r, err := experiments.RunScorecard(ctx, *seed)
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
	}

	ids := make([]string, len(runners))
	for i, r := range runners {
		ids[i] = r.id
	}
	only := flag.String("only", "", "comma-separated experiment ids ("+strings.Join(ids, ", ")+"); empty = all")
	flag.Parse()
	selected, err := selectIDs(ids, *only)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cdabench: %v\n", err)
		os.Exit(2)
	}

	for _, r := range runners {
		if !selected[r.id] {
			continue
		}
		start := time.Now() // cdalint:ignore nondeterminism -- reports real wall-clock runtime, not a measured result
		table, err := r.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", r.id, err)
			os.Exit(1)
		}
		fmt.Println(table.String())
		// cdalint:ignore nondeterminism -- same wall-clock progress report
		fmt.Printf("(%s completed in %v)\n\n", r.id, time.Since(start).Round(time.Millisecond))
	}
}
