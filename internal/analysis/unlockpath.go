package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"

	"github.com/reliable-cda/cda/internal/analysis/lockset"
	"github.com/reliable-cda/cda/internal/analysis/typestate"
)

// UnlockPath is the CFG-based lock-pairing rule: every
// sync.Mutex/RWMutex acquisition must be released on EVERY path out of the function — every return, every
// branch, and every explicit panic — not merely "before the first
// return after the Lock". A defer'd Unlock (directly or inside a
// deferred closure) satisfies all paths at once, including panics;
// explicit Unlocks are checked path-by-path over the control-flow
// graph, so branch-dependent release patterns the old heuristic could
// not see (unlock in one arm of an if, missing in the other) are now
// caught. Function literals are analyzed as their own units.
var UnlockPath = &Analyzer{
	Name:     ruleUnlockPath,
	Doc:      "a Lock/RLock with a path to return or panic that never releases it",
	Severity: SeverityError,
	Run:      runUnlockPath,
}

// Path facts per acquisition site. The powerset semantics: a set bit
// means the fact holds on at least one path reaching the point.
const (
	// upHeld: the lock is held with no deferred release registered.
	upHeld typestate.Facts = 1 << iota
	// upDeferred: the lock is held but a deferred release covers it.
	upDeferred
)

// upKey identifies one acquisition: the lock as the lockset engine
// recognises it (root object, field path, mode) and the call site.
type upKey struct {
	op  lockset.LockOp
	pos token.Pos
}

func runUnlockPath(p *Package) []Finding {
	var out []Finding
	for _, fb := range funcBodies(p) {
		out = append(out, unlockPathBody(p, fb)...)
	}
	return out
}

func unlockPathBody(p *Package, fb funcBody) []Finding {
	cfg := typestate.BuildTyped(p.Info, fb.body)
	res := typestate.Forward(cfg, typestate.Analysis{
		Transfer: func(n ast.Node, s typestate.State) {
			if ds, ok := n.(*ast.DeferStmt); ok {
				upDeferredReleases(p, ds, s)
				return
			}
			typestate.InspectNoFuncLit(n, func(m ast.Node) bool {
				call, ok := m.(*ast.CallExpr)
				if !ok {
					return true
				}
				op, ok := lockset.LockCall(p.Info, call)
				if !ok {
					return true
				}
				if op.Unlock {
					upRelease(s, op, false)
					return true
				}
				k := upKey{op: op, pos: call.Pos()}
				// Re-entering the acquire site (a loop): paths already
				// covered by a registered defer stay covered.
				s[k] = upHeld | (s[k] & upDeferred)
				return true
			})
		},
	})

	var out []Finding
	reported := map[upKey]bool{}
	flag := func(s typestate.State, what string) {
		for k, facts := range s {
			key, ok := k.(upKey)
			if !ok || facts&upHeld == 0 || reported[key] {
				continue
			}
			reported[key] = true
			verb := "Lock"
			unlockVerb := "Unlock"
			if key.op.Mode == lockset.Shared {
				verb, unlockVerb = "RLock", "RUnlock"
			}
			out = append(out, Finding{
				Rule: ruleUnlockPath, Severity: SeverityError,
				Pos: p.Fset.Position(key.pos),
				Message: fmt.Sprintf("%s.%s() is not released on every %s; add defer %s.%s()",
					key.op, verb, what, key.op, unlockVerb),
			})
		}
	}
	if s := res.AtExit(); s != nil {
		flag(s, "return path")
	}
	if s := res.AtPanic(); s != nil {
		flag(s, "panic path")
	}
	// State maps iterate in random order; findings must not.
	sort.Slice(out, func(i, j int) bool { return out[i].Pos.Offset < out[j].Pos.Offset })
	return out
}

// upDeferredReleases applies a defer statement's release effects:
// `defer mu.Unlock()` directly, or every unlock inside a deferred
// closure. Held facts become deferred-covered facts.
func upDeferredReleases(p *Package, ds *ast.DeferStmt, s typestate.State) {
	apply := func(call *ast.CallExpr) {
		if op, ok := lockset.LockCall(p.Info, call); ok && op.Unlock {
			upRelease(s, op, true)
		}
	}
	if fl, ok := ast.Unparen(ds.Call.Fun).(*ast.FuncLit); ok {
		ast.Inspect(fl.Body, func(m ast.Node) bool {
			if call, ok := m.(*ast.CallExpr); ok {
				apply(call)
			}
			return true
		})
		return
	}
	apply(ds.Call)
}

// upRelease clears the held fact on every acquisition of the same
// lock. A deferred release converts held into deferred-covered
// (release at every exit); an explicit one simply ends the region on
// this path.
func upRelease(s typestate.State, rel lockset.LockOp, deferred bool) {
	rel.Unlock = false
	for k, facts := range s {
		key, ok := k.(upKey)
		if !ok || key.op != rel {
			continue
		}
		if facts&upHeld != 0 {
			facts &^= upHeld
			if deferred {
				facts |= upDeferred
			}
			s[k] = facts
		}
	}
}
