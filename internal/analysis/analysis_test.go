package analysis

import (
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files from current analyzer output")

// loadFixture loads one testdata fixture package with a loader
// rooted at this module (so fixtures can import real module
// packages like internal/core).
func loadFixture(t *testing.T, loader *Loader, dir string) *Package {
	t.Helper()
	p, err := loader.LoadDir(filepath.Join("testdata", "src", dir))
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	if p == nil {
		t.Fatalf("fixture %s has no Go files", dir)
	}
	return p
}

func newTestLoader(t *testing.T) *Loader {
	t.Helper()
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	return loader
}

// renderFindings formats findings with paths relative to the
// fixture root so golden files are machine-independent.
func renderFindings(t *testing.T, findings []Finding) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, f := range findings {
		if rel, err := filepath.Rel(root, f.Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			f.Pos.Filename = filepath.ToSlash(rel)
		}
		sb.WriteString(f.String())
		sb.WriteString("\n")
	}
	return sb.String()
}

// TestAnalyzersGolden checks each analyzer against its deliberately
// broken fixture package: the exact findings must match the golden
// file, and every cdalint:ignore'd site must be absent.
func TestAnalyzersGolden(t *testing.T) {
	cases := []struct {
		rule string
		dir  string
	}{
		{"dropped-error", "droppederror"},
		{"nondeterminism", "nondeterminism"},
		{"map-order-leak", "maporder"},
		{"bare-panic", "barepanic"},
		{"raw-sleep", "rawsleep"},
		{"ctx-propagation", "ctxprop"},
		{"resource-leak", "resourceleak"},
		{"fsync-order", "fsyncorder"},
		{"goroutine-leak", "goroutineleak"},
	}
	loader := newTestLoader(t)
	for _, tc := range cases {
		t.Run(tc.rule, func(t *testing.T) {
			a := AnalyzerByName(tc.rule)
			if a == nil {
				t.Fatalf("unknown analyzer %q", tc.rule)
			}
			p := loadFixture(t, loader, tc.dir)
			got := renderFindings(t, Run([]*Package{p}, []*Analyzer{a}))
			if got == "" {
				t.Fatalf("analyzer %s found nothing in its broken fixture", tc.rule)
			}
			goldenPath := filepath.Join("testdata", tc.dir+".golden")
			if *update {
				if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("reading golden (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("findings mismatch for %s\n--- got ---\n%s--- want ---\n%s", tc.rule, got, want)
			}
		})
	}
}

// TestSuppressedSitesAreCounted double-checks the fixtures really
// contain the suppressed violations: with ignore processing bypassed
// (calling the analyzer directly), each fixture must yield MORE
// findings than the golden set.
func TestSuppressedSitesAreCounted(t *testing.T) {
	cases := map[string]string{
		"dropped-error":   "droppederror",
		"nondeterminism":  "nondeterminism",
		"map-order-leak":  "maporder",
		"bare-panic":      "barepanic",
		"raw-sleep":       "rawsleep",
		"ctx-propagation": "ctxprop",
		"resource-leak":   "resourceleak",
		"fsync-order":     "fsyncorder",
		"goroutine-leak":  "goroutineleak",
	}
	loader := newTestLoader(t)
	for rule, dir := range cases {
		a := AnalyzerByName(rule)
		p := loadFixture(t, loader, dir)
		raw := len(a.Run(p))
		filtered := len(Run([]*Package{p}, []*Analyzer{a}))
		if raw <= filtered {
			t.Errorf("%s: raw findings %d should exceed post-ignore findings %d (fixture must include a suppressed case)",
				rule, raw, filtered)
		}
	}
}

// TestIgnoreScopeGolden is the regression test for directive scoping
// over multi-line statements: the ignorescope fixture's golden set
// must contain the control finding but not the wrapped (suppressed)
// one — and raw analyzer output must contain both.
func TestIgnoreScopeGolden(t *testing.T) {
	loader := newTestLoader(t)
	a := AnalyzerByName("nondeterminism")
	p := loadFixture(t, loader, "ignorescope")
	got := renderFindings(t, Run([]*Package{p}, []*Analyzer{a}))
	goldenPath := filepath.Join("testdata", "ignorescope.golden")
	if *update {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("findings mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	raw := len(a.Run(p))
	filtered := len(Run([]*Package{p}, []*Analyzer{a}))
	if raw != filtered+2 {
		t.Errorf("expected exactly 2 suppressed sites — the wrapped statement in each function — got raw=%d filtered=%d", raw, filtered)
	}
}

// TestIgnoreLitScopeGolden pins directive scoping at function-literal
// and select-case boundaries for a CFG-based rule: a directive on a
// spawning go/defer statement covers the statement header only and
// never the literal body (the leaks inside spawnLeaky/deferClosure
// survive it), while directives placed inside the literal or at the
// end of a select case arm's own line suppress exactly their sites.
func TestIgnoreLitScopeGolden(t *testing.T) {
	loader := newTestLoader(t)
	a := AnalyzerByName("resource-leak")
	p := loadFixture(t, loader, "ignorelit")
	got := renderFindings(t, Run([]*Package{p}, []*Analyzer{a}))
	goldenPath := filepath.Join("testdata", "ignorelit.golden")
	if *update {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("findings mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	raw := len(a.Run(p))
	filtered := len(Run([]*Package{p}, []*Analyzer{a}))
	if raw != filtered+2 {
		t.Errorf("expected exactly 2 suppressed sites — inside the literal and in the select arm — got raw=%d filtered=%d", raw, filtered)
	}
	for _, fn := range []string{"spawnLeaky", "deferClosure"} {
		if !strings.Contains(got, "ignorelit") {
			t.Errorf("golden should contain the surviving %s finding", fn)
		}
	}
}

// TestIgnoreScopeMultilineRename pins directive scoping for the
// CFG-based rules: the fsyncorder fixture's suppressed rename spans
// several lines, and the directive on the line above must cover the
// whole statement — exactly one site is suppressed there.
func TestIgnoreScopeMultilineRename(t *testing.T) {
	loader := newTestLoader(t)
	a := AnalyzerByName("fsync-order")
	p := loadFixture(t, loader, "fsyncorder")
	raw := len(a.Run(p))
	filtered := len(Run([]*Package{p}, []*Analyzer{a}))
	if raw != filtered+1 {
		t.Errorf("expected exactly 1 suppressed site — the multi-line rename — got raw=%d filtered=%d", raw, filtered)
	}
}

// moduleLoad is the whole module, loaded once for the tests that lint
// it.
var moduleLoad struct {
	once sync.Once
	pkgs []*Package
	err  error
}

func loadModule(t *testing.T) []*Package {
	t.Helper()
	if testing.Short() {
		t.Skip("whole-module lint is slow; skipped with -short")
	}
	moduleLoad.once.Do(func() {
		loader, err := NewLoader(".")
		if err == nil {
			moduleLoad.pkgs, err = loader.Load("./...")
		}
		moduleLoad.err = err
	})
	if moduleLoad.err != nil {
		t.Fatalf("loading module: %v", moduleLoad.err)
	}
	if len(moduleLoad.pkgs) < 20 {
		t.Fatalf("expected to load the whole module, got %d packages", len(moduleLoad.pkgs))
	}
	return moduleLoad.pkgs
}

// TestModuleIsClean lints the entire module with the full suite —
// the same gate scripts/check.sh enforces. Any finding here means a
// reliability invariant regressed.
func TestModuleIsClean(t *testing.T) {
	pkgs := loadModule(t)
	findings := Run(pkgs, Analyzers())
	for _, f := range findings {
		t.Errorf("%s", f)
	}
	if len(findings) > 0 {
		t.Errorf("module is not lint-clean: %d findings across %d packages (each listed above with file:line and rule)",
			len(findings), len(pkgs))
	}
}

// TestModuleIgnoresAreLoadBearing is the other half of the gate: every
// cdalint:ignore in module code must still be suppressing something.
// The suite runs with directive processing bypassed, and each directive
// has to cover a raw finding of a rule it names on the lines it spans —
// so a suppression the engines no longer need fails the build instead
// of waiting for someone to strip it by hand. The analyzers' own
// sources are skipped: they spell the directive in prose.
func TestModuleIgnoresAreLoadBearing(t *testing.T) {
	pkgs := loadModule(t)
	type site struct {
		file string
		line int
	}
	raw := map[site]map[string]bool{}
	for _, a := range Analyzers() {
		for _, p := range pkgs {
			for _, f := range a.Run(p) {
				at := site{f.Pos.Filename, f.Pos.Line}
				if raw[at] == nil {
					raw[at] = map[string]bool{}
				}
				raw[at][a.Name] = true
			}
		}
	}
	checked := 0
	for _, p := range pkgs {
		if strings.Contains(p.Path+"/", "/internal/analysis/") || strings.HasSuffix(p.Path, "/cmd/cdalint") {
			continue
		}
		for _, d := range directivesFor(p) {
			checked++
			bearing := false
			for line := d.first; line <= d.last; line++ {
				for rule := range raw[site{d.file, line}] {
					if d.rules["*"] || d.rules[rule] {
						bearing = true
					}
				}
			}
			if !bearing {
				rules := make([]string, 0, len(d.rules))
				for r := range d.rules {
					rules = append(rules, r)
				}
				sort.Strings(rules)
				t.Errorf("%s:%d: cdalint:ignore %s suppresses nothing on lines %d-%d: delete the directive",
					d.file, d.first, strings.Join(rules, ","), d.first, d.last)
			}
		}
	}
	if checked == 0 {
		t.Error("found no directive to check; the module has some")
	}
}

// TestAnalyzerByName covers the lookup used by the -only flag.
func TestAnalyzerByName(t *testing.T) {
	for _, a := range Analyzers() {
		if AnalyzerByName(a.Name) != a {
			t.Errorf("AnalyzerByName(%q) did not round-trip", a.Name)
		}
	}
	if AnalyzerByName("no-such-rule") != nil {
		t.Error("AnalyzerByName should return nil for unknown rules")
	}
}

// TestIgnoreParsing covers directive parsing edge cases.
func TestIgnoreParsing(t *testing.T) {
	if got := parseRuleList(" dropped-error, bare-panic -- reason"); !got["dropped-error"] || !got["bare-panic"] {
		t.Errorf("comma list not parsed: %v", got)
	}
	if got := parseRuleList(""); !got["*"] {
		t.Errorf("bare directive should suppress all rules: %v", got)
	}
	if got := parseRuleList(" all"); !got["*"] {
		t.Errorf("'all' should map to wildcard: %v", got)
	}
}
