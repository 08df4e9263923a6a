// Package analysis implements cdalint, a stdlib-only static-analysis
// suite that machine-checks the reliability invariants the paper
// otherwise leaves to convention: errors on verification paths must
// not be silently dropped (P4 Soundness), the simulated NL model and
// everything a transcript renders must stay deterministic so benchmark
// numbers and run-twice gates are reproducible, waits and contexts must
// go through the cancellable seams the timeout ladder relies on, and
// files, release callbacks, fsyncs and goroutines must be paired on
// every path so the serving layer stays durable and leak-free. That
// answers carry their annotations is checked by tests that run the
// pipeline, not here.
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

// Analyzer is one lint rule, run over one package at a time.
type Analyzer struct {
	Name     string
	Doc      string
	Severity Severity
	Run      func(p *Package) []Finding
}

// Analyzers returns the full rule suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		DroppedError,
		Nondeterminism,
		MapOrderLeak,
		BarePanic,
		RawSleep,
		CtxPropagation,
		ResourceLeak,
		FsyncOrder,
		GoroutineLeak,
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
	for _, p := range pkgs {
		ign := ignoresFor(p)
		for _, a := range analyzers {
			for _, f := range a.Run(p) {
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
	ruleDroppedError   = "dropped-error"
	ruleNondeterminism = "nondeterminism"
	ruleMapOrderLeak   = "map-order-leak"
	ruleBarePanic      = "bare-panic"
	ruleRawSleep       = "raw-sleep"
	ruleCtxPropagation = "ctx-propagation"
	ruleResourceLeak   = "resource-leak"
	ruleFsyncOrder     = "fsync-order"
	ruleGoroutineLeak  = "goroutine-leak"
)
