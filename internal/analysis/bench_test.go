package analysis

import "testing"

// BenchmarkCdalint measures one full-suite analysis pass over the
// whole module — the exact work scripts/check.sh runs under its
// 15-second budget. Loading and type-checking the packages happens
// once outside the timer; each iteration re-runs every analyzer,
// including the module-wide call-graph construction and dataflow
// fixed points (NewModule is rebuilt per Run call, as in the CLI).
func BenchmarkCdalint(b *testing.B) {
	loader, err := NewLoader(".")
	if err != nil {
		b.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := loader.Load("./...")
	if err != nil {
		b.Fatalf("loading module: %v", err)
	}
	if len(pkgs) < 20 {
		b.Fatalf("expected the whole module, got %d packages", len(pkgs))
	}
	analyzers := Analyzers()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if findings := Run(pkgs, analyzers); len(findings) != 0 {
			for _, f := range findings {
				b.Errorf("%s", f)
			}
			b.Fatalf("module not lint-clean: %d findings (listed above)", len(findings))
		}
	}
}

// BenchmarkCdastate measures just the four CFG/dataflow typestate
// rules (unlock-path, resource-leak, fsync-order, goroutine-leak)
// over the whole module, so regressions in the CFG builder or the
// fixed-point solver show up separately from the rest of the suite.
func BenchmarkCdastate(b *testing.B) {
	loader, err := NewLoader(".")
	if err != nil {
		b.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := loader.Load("./...")
	if err != nil {
		b.Fatalf("loading module: %v", err)
	}
	analyzers := []*Analyzer{UnlockPath, ResourceLeak, FsyncOrder, GoroutineLeak}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if findings := Run(pkgs, analyzers); len(findings) != 0 {
			for _, f := range findings {
				b.Errorf("%s", f)
			}
			b.Fatalf("module not clean under typestate rules: %d findings (listed above)", len(findings))
		}
	}
}

// BenchmarkCdarace measures just the three lockset race rules
// (racy-access, atomic-plain-mix, guard-escape) over the whole
// module. The interprocedural lockset fixed point is the most
// expensive single analysis in the suite, so it gets its own number:
// a regression here must not hide inside BenchmarkCdalint's total.
func BenchmarkCdarace(b *testing.B) {
	loader, err := NewLoader(".")
	if err != nil {
		b.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := loader.Load("./...")
	if err != nil {
		b.Fatalf("loading module: %v", err)
	}
	analyzers := []*Analyzer{RacyAccess, AtomicPlainMix, GuardEscape}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if findings := Run(pkgs, analyzers); len(findings) != 0 {
			for _, f := range findings {
				b.Errorf("%s", f)
			}
			b.Fatalf("module not clean under lockset rules: %d findings (listed above)", len(findings))
		}
	}
}
