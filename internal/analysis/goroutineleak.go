package analysis

import (
	"go/ast"
	"go/types"

	"github.com/reliable-cda/cda/internal/analysis/typestate"
)

// GoroutineLeak checks that every `go func(){...}` either signals
// completion on all exit paths or is bounded by a context:
//
//   - a completion signal is a sync.WaitGroup Done(), a channel send,
//     or a close(ch) — direct or under defer (defer covers panics
//     too);
//   - a goroutine whose body receives from ctx.Done()/checks
//     ctx.Err() or ranges over a channel is lifecycle-bounded by its
//     owner and exempt;
//   - a goroutine that can neither terminate nor be signalled (an
//     unbounded for {} worker) is flagged outright.
//
// Goroutines that launch named functions are not checked — their
// bodies belong to another CFG. Loop-variable capture is not checked
// either: the module is go 1.22, so every iteration has its own
// variable.
var GoroutineLeak = &Analyzer{
	Name:     ruleGoroutineLeak,
	Doc:      "a go func with no completion signal (Done/send/close) or context bound",
	Severity: SeverityError,
	Run:      runGoroutineLeak,
}

const (
	// glPending: the goroutine can reach this point without having
	// signalled completion.
	glPending typestate.Facts = 1 << iota
	// glSignaled is informational; the check is on glPending.
	glSignaled
)

// glKey is the single tracked fact per goroutine body.
type glKey struct{}

func runGoroutineLeak(p *Package) []Finding {
	var out []Finding
	for _, fb := range funcBodies(p) {
		typestate.InspectNoFuncLit(fb.body, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if fl, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit); ok {
				out = append(out, checkGoroutine(p, gs, fl)...)
			}
			return true
		})
	}
	return out
}

// checkGoroutine runs the completion-signal analysis over one
// goroutine closure body.
func checkGoroutine(p *Package, gs *ast.GoStmt, fl *ast.FuncLit) []Finding {
	if glContextBounded(p, fl.Body) {
		return nil
	}
	cfg := typestate.BuildTyped(p.Info, fl.Body)
	res := typestate.Forward(cfg, typestate.Analysis{
		Init: typestate.State{glKey{}: glPending},
		Transfer: func(n ast.Node, s typestate.State) {
			if glSignals(p, n) {
				s[glKey{}] = glSignaled
			}
		},
	})
	exit := res.AtExit()
	if exit == nil {
		return []Finding{{
			Rule: ruleGoroutineLeak, Severity: SeverityError,
			Pos:     p.Fset.Position(gs.Pos()),
			Message: "goroutine never terminates and is not context-bounded; select on ctx.Done() or range over a closable channel",
		}}
	}
	if exit[glKey{}]&glPending != 0 {
		return []Finding{{
			Rule: ruleGoroutineLeak, Severity: SeverityError,
			Pos:     p.Fset.Position(gs.Pos()),
			Message: "goroutine can finish without signalling completion; send on or close a channel, or defer wg.Done()",
		}}
	}
	return nil
}

// glContextBounded reports whether the body's lifecycle is already
// bounded by its owner: it receives from a context's Done channel,
// consults ctx.Err(), or ranges over a channel (terminating on
// close).
func glContextBounded(p *Package, body *ast.BlockStmt) bool {
	bounded := false
	typestate.InspectNoFuncLit(body, func(n ast.Node) bool {
		if bounded {
			return false
		}
		switch m := n.(type) {
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(m.Fun).(*ast.SelectorExpr); ok &&
				(sel.Sel.Name == "Done" || sel.Sel.Name == "Err") {
				if tv, ok := p.Info.Types[sel.X]; ok {
					if path, name := namedPathName(tv.Type); path == "context" && name == "Context" {
						bounded = true
					}
				}
			}
		case *ast.RangeStmt:
			if tv, ok := p.Info.Types[m.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					bounded = true
				}
			}
		}
		return true
	})
	return bounded
}

// glSignals reports whether the node completes the goroutine's
// contract: WaitGroup.Done, a channel send, or close(ch). Deferred
// closures are scanned in full — a defer runs on every exit.
func glSignals(p *Package, n ast.Node) bool {
	found := false
	var visit func(m ast.Node) bool
	visit = func(m ast.Node) bool {
		if found {
			return false
		}
		switch st := m.(type) {
		case *ast.SendStmt:
			found = true
		case *ast.CallExpr:
			switch fun := ast.Unparen(st.Fun).(type) {
			case *ast.SelectorExpr:
				if fun.Sel.Name == "Done" {
					if tv, ok := p.Info.Types[fun.X]; ok {
						if path, name := namedPathName(tv.Type); path == "sync" && name == "WaitGroup" {
							found = true
						}
					}
				}
			case *ast.Ident:
				if b, ok := p.Info.Uses[fun].(*types.Builtin); ok && b.Name() == "close" {
					found = true
				}
			}
		}
		return !found
	}
	if ds, ok := n.(*ast.DeferStmt); ok {
		if fl, ok := ast.Unparen(ds.Call.Fun).(*ast.FuncLit); ok {
			ast.Inspect(fl.Body, visit)
		}
		ast.Inspect(ds.Call, visit)
		return found
	}
	typestate.InspectNoFuncLit(n, func(m ast.Node) bool { return visit(m) })
	return found
}
