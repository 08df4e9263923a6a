package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockFlow is the interprocedural companion to unlock-path: it
// flags calling a function that (transitively) acquires a mutex that
// the caller already holds on the same object — the classic
// self-deadlock that sync.Mutex does not forgive. Lock acquisitions
// are summarised per function as (parameter, field-path) pairs and
// propagated over the call graph; at each call inside a held region
// the callee's summary is mapped back through the call's receiver and
// arguments. Read-lock inside read-lock is tolerated; every other
// combination on the same mutex is reported.
var LockFlow = &Analyzer{
	Name:      ruleLockFlow,
	Doc:       "calling a function that re-acquires a mutex the caller already holds (interprocedural self-deadlock)",
	Severity:  SeverityError,
	RunModule: runLockFlow,
}

// lockPoint is one acquisition a function performs, expressed in its
// caller-mappable form: on the receiver (idx -1), on a parameter
// (idx >= 0), or on a package-level variable (idx == lockGlobal, obj
// set).
type lockPoint struct {
	idx  int
	path string
	obj  types.Object
	rw   bool
}

const lockGlobal = -2

// lfAcquire is a direct lock event in a function body.
type lfAcquire struct {
	base    types.Object
	path    string
	rw      bool
	unlock  bool
	defered bool
	pos     token.Pos
}

// lfCall is a call site with its possible declared targets and the
// expressions a callee summary maps back through.
type lfCall struct {
	call    *ast.CallExpr
	targets []*types.Func
	pos     token.Pos
}

// lfFunc is the per-function view the rule iterates over.
type lfFunc struct {
	pkg      *Package
	decl     *ast.FuncDecl
	fn       *types.Func
	acquires []lfAcquire
	calls    []lfCall
}

func runLockFlow(m *Module) []Finding {
	funcs := collectLockFuncs(m)
	sums := lockSummaries(funcs)
	ordered := make([]*lfFunc, 0, len(funcs))
	for _, lf := range funcs {
		ordered = append(ordered, lf)
	}
	sort.Slice(ordered, func(i, j int) bool {
		return ordered[i].fn.FullName() < ordered[j].fn.FullName()
	})
	var out []Finding
	for _, lf := range ordered {
		out = append(out, flagHeldRegions(lf, sums)...)
	}
	return out
}

// collectLockFuncs walks every declaration once, recording direct
// lock events and call sites. Function literals are skipped: a
// closure may run after the region ends (goroutine, defer), so
// charging its locks to the enclosing region would guess.
func collectLockFuncs(m *Module) map[*types.Func]*lfFunc {
	funcs := map[*types.Func]*lfFunc{}
	for _, p := range m.Pkgs {
		for _, fd := range funcDecls(p) {
			fn, _ := p.Info.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			lf := &lfFunc{pkg: p, decl: fd, fn: fn}
			walkSkipFuncLit(fd.Body, func(n ast.Node) {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return
				}
				if acq, ok := lockEventOf(p, call); ok {
					lf.acquires = append(lf.acquires, acq)
					return
				}
				targets := lockCallTargets(m, p, call)
				lf.calls = append(lf.calls, lfCall{call: call, targets: targets, pos: call.Pos()})
			})
			// Deferred unlocks: mark matching acquires as
			// region-to-function-end.
			markDeferred(p, fd, lf)
			funcs[fn] = lf
		}
	}
	return funcs
}

// walkSkipFuncLit visits every node of the body except those inside
// function literals.
func walkSkipFuncLit(body *ast.BlockStmt, visit func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}

// lockEventOf classifies a call as a sync.Mutex / sync.RWMutex
// acquire or release, returning the base object and field path.
func lockEventOf(p *Package, call *ast.CallExpr) (lfAcquire, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return lfAcquire{}, false
	}
	var rw, unlock bool
	switch sel.Sel.Name {
	case "Lock":
	case "RLock":
		rw = true
	case "Unlock":
		unlock = true
	case "RUnlock":
		rw, unlock = true, true
	default:
		return lfAcquire{}, false
	}
	tv, ok := p.Info.Types[sel.X]
	if !ok {
		return lfAcquire{}, false
	}
	path, name := namedPathName(tv.Type)
	if path != "sync" || (name != "Mutex" && name != "RWMutex") {
		return lfAcquire{}, false
	}
	base, fieldPath := lockBase(p, sel.X)
	if base == nil {
		return lfAcquire{}, false
	}
	return lfAcquire{base: base, path: fieldPath, rw: rw, unlock: unlock, pos: call.Pos()}, true
}

// lockBase resolves the root object and remaining field path of a
// lock receiver: s.mu → (s, "mu"); mu → (mu, ""); c.state.mu →
// (c, "state.mu"). Non-identifier roots return nil.
func lockBase(p *Package, e ast.Expr) (types.Object, string) {
	full := exprString(p.Fset, ast.Unparen(e))
	var root *ast.Ident
	cur := ast.Unparen(e)
	for root == nil {
		switch t := cur.(type) {
		case *ast.Ident:
			root = t
		case *ast.SelectorExpr:
			cur = ast.Unparen(t.X)
		case *ast.StarExpr:
			cur = ast.Unparen(t.X)
		default:
			return nil, ""
		}
	}
	obj := p.Info.ObjectOf(root)
	if obj == nil {
		return nil, ""
	}
	path := strings.TrimPrefix(full, "*")
	path = strings.TrimPrefix(path, root.Name)
	path = strings.TrimPrefix(path, ".")
	return obj, path
}

// markDeferred flips the defered bit on release events that occur
// under defer statements.
func markDeferred(p *Package, fd *ast.FuncDecl, lf *lfFunc) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		ds, ok := n.(*ast.DeferStmt)
		if !ok {
			return true
		}
		for i := range lf.acquires {
			if lf.acquires[i].pos == ds.Call.Pos() {
				lf.acquires[i].defered = true
			}
		}
		return true
	})
}

// lockCallTargets resolves a call to its declared targets, including
// every known implementation when the callee is an interface method.
func lockCallTargets(m *Module, p *Package, call *ast.CallExpr) []*types.Func {
	callee := calleeFunc(p, call)
	if callee == nil {
		return nil
	}
	targets := []*types.Func{callee}
	if sig, ok := callee.Type().(*types.Signature); ok && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
		targets = append(targets, m.Graph.Impls[callee]...)
	}
	return targets
}

// paramIndexOf maps an object to fn's receiver (-1) or parameter
// index, or lockGlobal for a package-level variable; ok=false for
// locals.
func paramIndexOf(fn *types.Func, obj types.Object) (int, bool) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return 0, false
	}
	if recv := sig.Recv(); recv != nil && obj == recv {
		return -1, true
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if obj == sig.Params().At(i) {
			return i, true
		}
	}
	if v, ok := obj.(*types.Var); ok && v.Parent() != nil && v.Parent().Parent() == types.Universe {
		return lockGlobal, true
	}
	return 0, false
}

// lockSummaries computes, to a fixed point over the call graph, the
// set of caller-mappable lock acquisitions each function may perform,
// directly or through callees.
func lockSummaries(funcs map[*types.Func]*lfFunc) map[*types.Func]map[lockPoint]bool {
	sums := map[*types.Func]map[lockPoint]bool{}
	for fn, lf := range funcs {
		set := map[lockPoint]bool{}
		for _, acq := range lf.acquires {
			if acq.unlock {
				continue
			}
			if idx, ok := paramIndexOf(fn, acq.base); ok {
				pt := lockPoint{idx: idx, path: acq.path, rw: acq.rw}
				if idx == lockGlobal {
					pt.obj = acq.base
				}
				set[pt] = true
			}
		}
		sums[fn] = set
	}
	for changed := true; changed; {
		changed = false
		for fn, lf := range funcs {
			set := sums[fn]
			for _, c := range lf.calls {
				for _, target := range c.targets {
					for pt := range sums[target] {
						mapped, ok := mapLockPoint(lf.pkg, fn, c.call, pt)
						if !ok || set[mapped] {
							continue
						}
						set[mapped] = true
						changed = true
					}
				}
			}
		}
	}
	return sums
}

// mapLockPoint translates a callee lock point to the caller's frame
// through a specific call expression: object-identity points (globals,
// locals) pass through unchanged; receiver and parameter points
// require the corresponding call operand to be a bare identifier. An
// operand that is neither the caller's receiver nor a parameter maps
// to an object-identity point, so locking a local struct's mutex and
// then calling its locking method is still caught.
func mapLockPoint(p *Package, caller *types.Func, call *ast.CallExpr, pt lockPoint) (lockPoint, bool) {
	if pt.idx == lockGlobal {
		return pt, true
	}
	var operand ast.Expr
	if pt.idx == -1 {
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return lockPoint{}, false
		}
		operand = sel.X
	} else {
		if pt.idx >= len(call.Args) {
			return lockPoint{}, false
		}
		operand = call.Args[pt.idx]
	}
	id, ok := ast.Unparen(operand).(*ast.Ident)
	if !ok {
		// &x as a lock-carrying argument is the same object as x.
		if u, okU := ast.Unparen(operand).(*ast.UnaryExpr); okU && u.Op == token.AND {
			id, ok = ast.Unparen(u.X).(*ast.Ident)
		}
		if !ok {
			return lockPoint{}, false
		}
	}
	obj := p.Info.ObjectOf(id)
	if obj == nil {
		return lockPoint{}, false
	}
	if idx, okIdx := paramIndexOf(caller, obj); okIdx && idx != lockGlobal {
		return lockPoint{idx: idx, path: pt.path, rw: pt.rw}, true
	}
	return lockPoint{idx: lockGlobal, path: pt.path, rw: pt.rw, obj: obj}, true
}

// flagHeldRegions walks a function's lock regions and reports calls
// that re-acquire a held mutex, plus direct re-acquisition.
func flagHeldRegions(lf *lfFunc, sums map[*types.Func]map[lockPoint]bool) []Finding {
	p := lf.pkg
	var out []Finding
	for i, acq := range lf.acquires {
		if acq.unlock {
			continue
		}
		end := lf.decl.Body.End()
		for _, rel := range lf.acquires[i+1:] {
			if rel.unlock && !rel.defered && rel.base == acq.base && rel.path == acq.path {
				end = rel.pos
				break
			}
		}
		lockName := lockDisplayName(p, acq)
		// Direct re-acquire inside the region.
		for _, re := range lf.acquires[i+1:] {
			if re.unlock || re.pos >= end || re.base != acq.base || re.path != acq.path {
				continue
			}
			if re.rw && acq.rw {
				continue
			}
			out = append(out, Finding{Rule: ruleLockFlow, Severity: SeverityError,
				Pos: p.Fset.Position(re.pos),
				Message: fmt.Sprintf("%s is re-acquired while already held (acquired at line %d): guaranteed self-deadlock",
					lockName, p.Fset.Position(acq.pos).Line)})
		}
		// Calls whose transitive summary re-acquires the held mutex.
		for _, c := range lf.calls {
			if c.pos <= acq.pos || c.pos >= end {
				continue
			}
			for _, target := range c.targets {
				hit := false
				for pt := range sums[target] {
					mapped, ok := mapLockPoint(p, lf.fn, c.call, pt)
					if !ok {
						continue
					}
					sameLock := false
					if mapped.idx == lockGlobal {
						sameLock = mapped.obj == acq.base && mapped.path == acq.path
					} else if idx, okIdx := paramIndexOf(lf.fn, acq.base); okIdx {
						sameLock = idx == mapped.idx && mapped.path == acq.path
					}
					if sameLock && !(mapped.rw && acq.rw) {
						hit = true
					}
				}
				if hit {
					out = append(out, Finding{Rule: ruleLockFlow, Severity: SeverityError,
						Pos: p.Fset.Position(c.pos),
						Message: fmt.Sprintf("call to %s acquires %s, which is already held here (acquired at line %d): self-deadlock through the call graph",
							target.Name(), lockName, p.Fset.Position(acq.pos).Line)})
					break
				}
			}
		}
	}
	return out
}

// lockDisplayName renders the held mutex for messages ("s.mu").
func lockDisplayName(p *Package, acq lfAcquire) string {
	if acq.path == "" {
		return acq.base.Name()
	}
	return acq.base.Name() + "." + acq.path
}
