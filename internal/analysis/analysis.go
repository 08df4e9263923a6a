// Package analysis implements cdalint, a stdlib-only static-analysis
// suite that machine-checks the reliability invariants the paper
// otherwise leaves to convention: answers must carry their grounding,
// provenance, and confidence annotations (P2 Grounding, P3
// Explainability), the simulated NL model must stay deterministic so
// benchmark numbers are reproducible, errors on verification paths
// must not be silently dropped (P4 Soundness), and concurrent state
// must follow mutex hygiene so the serving layer stays correct under
// load.
//
// The suite is built purely on go/ast, go/parser, go/token, go/types,
// and go/importer — no third-party analysis frameworks — so it runs
// in any environment that has the Go toolchain.
//
// Findings can be suppressed with an inline directive; it covers its
// own line through the line after its comment group, so it works both
// at the end of the offending line and on the line(s) above it:
//
//	// cdalint:ignore <rule>[,<rule>...]   suppress the named rules
//	// cdalint:ignore                      suppress every rule
//
// Use sparingly and leave a reason next to the directive; the point
// of the suite is that exceptions are visible and auditable.
package analysis

import (
	"fmt"
	"go/token"
	"sort"
	"sync"

	"github.com/reliable-cda/cda/internal/analysis/flow"
	"github.com/reliable-cda/cda/internal/analysis/lockset"
)

// Severity classifies a finding. Errors violate a reliability
// invariant outright; warnings flag risky patterns that need a
// human look.
type Severity int

const (
	// SeverityWarning marks a risky pattern worth auditing.
	SeverityWarning Severity = iota
	// SeverityError marks a violated reliability invariant.
	SeverityError
)

// String returns "warning" or "error".
func (s Severity) String() string {
	if s == SeverityError {
		return "error"
	}
	return "warning"
}

// Finding is one diagnostic with its source position.
type Finding struct {
	Rule     string
	Severity Severity
	Pos      token.Position
	Message  string
}

// String renders the finding in the conventional
// file:line:col: severity: rule: message shape.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s: %s",
		f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Severity, f.Rule, f.Message)
}

// Analyzer is one lint rule. Per-package rules set Run; whole-module
// rules (the interprocedural suite over internal/analysis/flow) set
// RunModule instead and execute once over all loaded packages.
type Analyzer struct {
	Name      string
	Doc       string
	Severity  Severity
	Run       func(p *Package) []Finding
	RunModule func(m *Module) []Finding
}

// Module bundles the loaded packages with the interprocedural flow
// graph the module-wide analyzers share. Build it with NewModule; the
// call graph and dataflow summaries are computed lazily inside flow.
type Module struct {
	Pkgs  []*Package
	Units []*flow.Unit
	Graph *flow.Graph

	locksetOnce sync.Once
	lockset     *lockset.Result
}

// Lockset runs the module-wide lockset analysis once and caches the
// result: the three cdarace rules and lock-flow all read from it, so
// enabling one or all of them costs a single interprocedural fixed
// point.
func (m *Module) Lockset() *lockset.Result {
	m.locksetOnce.Do(func() {
		m.lockset = lockset.Analyze(m.Graph)
	})
	return m.lockset
}

// NewModule assembles the flow units and call graph for the packages.
func NewModule(pkgs []*Package) *Module {
	units := make([]*flow.Unit, 0, len(pkgs))
	for _, p := range pkgs {
		units = append(units, &flow.Unit{
			Path:  p.Path,
			Fset:  p.Fset,
			Files: p.Files,
			Types: p.Types,
			Info:  p.Info,
		})
	}
	return &Module{Pkgs: pkgs, Units: units, Graph: flow.BuildGraph(units)}
}

// Analyzers returns the full rule suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		DroppedError,
		Nondeterminism,
		UnannotatedAnswer,
		MapOrderLeak,
		BarePanic,
		RawSleep,
		CtxPropagation,
		ProvenanceTaint,
		ConfidenceBounds,
		LockFlow,
		UnlockPath,
		ResourceLeak,
		FsyncOrder,
		GoroutineLeak,
		RacyAccess,
		AtomicPlainMix,
		GuardEscape,
	}
}

// AnalyzerByName resolves a rule name, or nil.
func AnalyzerByName(name string) *Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Run applies the analyzers to every package, drops findings
// suppressed by cdalint:ignore directives, and returns the rest
// sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer) []Finding {
	var out []Finding
	var moduleRules []*Analyzer
	merged := ignoreSet{}
	keep := func(a *Analyzer, fs []Finding, ign ignoreSet) {
		for _, f := range fs {
			if f.Rule == "" {
				f.Rule = a.Name
			}
			if f.Severity == 0 && a.Severity != 0 {
				f.Severity = a.Severity
			}
			if ign.suppressed(f) {
				continue
			}
			out = append(out, f)
		}
	}
	for _, p := range pkgs {
		ign := ignoresFor(p)
		for file, byLine := range ign {
			merged[file] = byLine
		}
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			keep(a, a.Run(p), ign)
		}
	}
	for _, a := range analyzers {
		if a.RunModule != nil {
			moduleRules = append(moduleRules, a)
		}
	}
	if len(moduleRules) > 0 {
		m := NewModule(pkgs)
		for _, a := range moduleRules {
			keep(a, a.RunModule(m), merged)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
	return out
}

// Rule names, shared between analyzer definitions and their run
// functions (kept as constants to avoid initialization cycles).
const (
	ruleDroppedError      = "dropped-error"
	ruleNondeterminism    = "nondeterminism"
	ruleUnannotatedAnswer = "unannotated-answer"
	ruleMapOrderLeak      = "map-order-leak"
	ruleBarePanic         = "bare-panic"
	ruleRawSleep          = "raw-sleep"
	ruleCtxPropagation    = "ctx-propagation"
	ruleProvenanceTaint   = "provenance-taint"
	ruleConfidenceBounds  = "confidence-bounds"
	ruleLockFlow          = "lock-flow"
	ruleUnlockPath        = "unlock-path"
	ruleResourceLeak      = "resource-leak"
	ruleFsyncOrder        = "fsync-order"
	ruleGoroutineLeak     = "goroutine-leak"
	ruleRacyAccess        = "racy-access"
	ruleAtomicPlainMix    = "atomic-plain-mix"
	ruleGuardEscape       = "guard-escape"
)
