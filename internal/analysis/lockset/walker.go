package lockset

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"github.com/reliable-cda/cda/internal/analysis/flow"
	"github.com/reliable-cda/cda/internal/analysis/typestate"
)

// walker applies one CFG node's effects to the lockset state. During
// the solver iterations only the state matters. The replay pass turns
// on what it is for: sum collects the enclosing function's
// release-at-entry and may-lock points (the summary rounds); rec
// records re-acquisitions and recurses into function literal bodies
// (the recording pass).
type walker struct {
	e   *engine
	u   *flow.Unit
	fn  *types.Func
	s   state
	rec bool
	sum *Summary
}

// node dispatches one CFG node. The CFG lowers compound statements, so
// nodes are straight-line statements and steering expressions only.
func (w *walker) node(n ast.Node) {
	switch t := n.(type) {
	case *ast.GoStmt:
		// A spawn point: the operands are evaluated here, literals start
		// with an empty lockset, and the spawned call's lock effects
		// happen on the other goroutine — no summary applies here.
		w.children(t.Call)
	case *ast.DeferStmt:
		w.deferStmt(t)
	case *ast.AssignStmt:
		for _, rhs := range t.Rhs {
			w.expr(rhs)
		}
		for _, lhs := range t.Lhs {
			w.expr(lhs)
		}
	case ast.Expr:
		w.expr(t)
	default:
		w.children(n)
	}
}

// children walks n's direct children through node — one level of
// recursion at a time, so every special case above applies at any
// depth.
func (w *walker) children(n ast.Node) {
	ast.Inspect(n, func(m ast.Node) bool {
		if m == n {
			return true
		}
		if m == nil {
			return false
		}
		w.node(m)
		return false
	})
}

// expr evaluates one expression for lock events and literals.
func (w *walker) expr(e ast.Expr) {
	if e == nil {
		return
	}
	switch t := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		w.call(t)
	case *ast.FuncLit:
		// A literal stored or returned rather than called or passed
		// here (callback registration, immediate local) may run after
		// the region ends: it starts with an empty lockset.
		w.lit(t, state{})
	default:
		w.children(t)
	}
}

// call applies one call expression: lock events, operand evaluation
// (literal arguments inherit the current lockset), and the callee's
// interprocedural summary.
func (w *walker) call(call *ast.CallExpr) {
	if op, ok := LockCall(w.u.Info, call); ok {
		w.lockOp(op, call.Pos(), false)
		return
	}
	if fl, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		// Immediately invoked: runs here, under the current lockset.
		w.lit(fl, w.s.clone())
	} else {
		w.expr(call.Fun)
	}
	for _, arg := range call.Args {
		if fl, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
			w.lit(fl, w.s.clone())
			continue
		}
		w.expr(arg)
	}
	w.applySummaries(call, w.e.callTargets(w.u, call), w.s, false)
}

// deferStmt applies a deferred call's release effects at registration
// (the CFG keeps defers as plain nodes): a direct unlock, every unlock
// inside a deferred closure, or a deferred helper whose summary
// releases. Held locks covered this way stay held to the end of the
// function but are excluded from the exit summary.
func (w *walker) deferStmt(d *ast.DeferStmt) {
	call := d.Call
	if op, ok := LockCall(w.u.Info, call); ok {
		w.lockOp(op, call.Pos(), true)
		return
	}
	if fl, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		typestate.InspectNoFuncLit(fl.Body, func(m ast.Node) bool {
			if inner, ok := m.(*ast.CallExpr); ok {
				if op, ok := LockCall(w.u.Info, inner); ok && op.Unlock {
					w.release(op.key(), true)
				}
			}
			return true
		})
		// The closure body itself runs at function exit with (at
		// least) the lockset of the registration point.
		w.lit(fl, w.s.clone())
		return
	}
	// A deferred call runs at exit under the locks whose release was
	// deferred before it (defers run last-in first-out): those are what
	// it can re-acquire.
	atExit := state{}
	for k, h := range w.s {
		if h.f&deferredRelease != 0 {
			atExit[k] = h
		}
	}
	w.applySummaries(call, w.e.callTargets(w.u, call), atExit, true)
	// Receiver and arguments are evaluated at registration time.
	w.expr(call.Fun)
	for _, arg := range call.Args {
		w.expr(arg)
	}
}

// lit analyzes a function literal body as its own CFG, attributed to
// the enclosing declared function, with the given entry lockset.
// Literal bodies are only walked during the recording pass; they never
// contribute to summaries.
func (w *walker) lit(fl *ast.FuncLit, entry state) {
	if w.rec {
		w.e.solveAndReplay(fl.Body, entry, walker{e: w.e, u: w.u, fn: w.fn, rec: true})
	}
}

// LockOp is one sync.Mutex/sync.RWMutex method call on a resolvable
// object chain: s.mu.Lock() is {s, "mu", Exclusive, false}.
type LockOp struct {
	Root   types.Object
	Path   string
	Mode   Mode // Shared for RLock/RUnlock
	Unlock bool
}

// String renders the mutex as the source names it ("s.mu").
func (op LockOp) String() string { return op.key().String() }

func (op LockOp) key() key { return key{root: op.Root, path: op.Path} }

func (k key) String() string {
	return joinPath(k.root.Name(), k.path)
}

// LockCall classifies a call as a lock operation. It is the one place
// the analyzers recognise Lock/RLock/Unlock/RUnlock: the lockset
// walker, and through Result lock-flow, and unlock-path directly, all
// read it.
func LockCall(info *types.Info, call *ast.CallExpr) (LockOp, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return LockOp{}, false
	}
	op := LockOp{Mode: Exclusive}
	switch sel.Sel.Name {
	case "Lock":
	case "RLock":
		op.Mode = Shared
	case "Unlock":
		op.Unlock = true
	case "RUnlock":
		op.Mode, op.Unlock = Shared, true
	default:
		return LockOp{}, false
	}
	tv, ok := info.Types[sel.X]
	if !ok || !isMutex(tv.Type) {
		return LockOp{}, false
	}
	op.Root, op.Path, ok = exprKey(info, sel.X)
	return op, ok
}

// lockOp updates the state for one lock operation at pos.
func (w *walker) lockOp(op LockOp, pos token.Pos, deferred bool) {
	k := op.key()
	if op.Unlock {
		w.release(k, deferred)
		return
	}
	if h := w.s[k]; w.rec && relocked(h, op.Mode) {
		w.e.relocks = append(w.e.relocks, &Relock{Unit: w.u, Pos: pos, Lock: k.String(), HeldAt: h.at})
	}
	if w.sum != nil {
		if pt, ok := pointFor(w.fn, k); ok {
			w.sum.Locks[pt] |= op.Mode
		}
	}
	w.acquire(k, op.Mode, pos)
}

// acquire adds k to the lockset, taken at pos, in the given mode: an
// exclusive acquisition is what makes a later RLock a re-acquisition.
func (w *walker) acquire(k key, mode Mode, pos token.Pos) {
	h := hold{f: w.s[k].f&deferredRelease | held, at: pos}
	if mode&Exclusive != 0 {
		h.f |= exclusive
	}
	w.s[k] = h
}

// release drops k from the lockset, or with deferred set keeps it held
// to the end of the function but out of the exit summary. Releasing a
// mutex that is not held is the function's release-at-entry
// obligation, exported in the summary when caller-mappable.
func (w *walker) release(k key, deferred bool) {
	h, ok := w.s[k]
	switch {
	case !ok || h.f&held == 0:
		if pt, ok := pointFor(w.fn, k); ok && w.sum != nil {
			w.sum.Releases[pt] = true
		}
	case deferred:
		h.f |= deferredRelease
		w.s[k] = h
	default:
		delete(w.s, k)
	}
}

// relocked reports whether taking a mutex in the given mode(s) while it
// is held as h re-acquires a lock this body holds on every path: read
// inside read is tolerated.
func relocked(h hold, mode Mode) bool {
	return h.f&held != 0 && (mode&Exclusive != 0 || h.f&exclusive != 0)
}

// applySummaries maps each target's lock summary through the call
// operands into the caller's frame: re-acquisitions against under, the
// lockset the callee runs with; then releases (drop held keys, or
// propagate the obligation); then, for a call that runs here rather
// than at exit, acquires. Interface calls apply the union of all known
// implementations — a documented over-approximation.
func (w *walker) applySummaries(call *ast.CallExpr, targets []*types.Func, under state, deferred bool) {
	w.relocks(call, targets, under)
	for _, tg := range targets {
		sum := w.e.sums[tg]
		if sum == nil {
			continue
		}
		for pt, mode := range sum.Locks {
			w.mayLock(call, pt, mode)
		}
		for pt := range sum.Releases {
			if k, ok := w.mapPoint(call, pt); ok {
				w.release(k, deferred)
			}
		}
		for pt := range sum.Acquires {
			if k, ok := w.mapPoint(call, pt); ok && !deferred {
				w.acquire(k, sum.Locks[pt], call.Pos())
			}
		}
	}
}

// mayLock adds a callee's may-lock point, mapped through the call, to
// the enclosing function's own.
func (w *walker) mayLock(call *ast.CallExpr, pt Point, mode Mode) {
	if w.sum == nil {
		return
	}
	if k, ok := w.mapPoint(call, pt); ok {
		if mp, ok := pointFor(w.fn, k); ok {
			w.sum.Locks[mp] |= mode
		}
	}
}

// relocks records, for every key of s that a target of the call may
// lock again, one re-acquisition naming the first such target.
func (w *walker) relocks(call *ast.CallExpr, targets []*types.Func, s state) {
	if !w.rec || len(s) == 0 {
		return
	}
	hit := map[key]*types.Func{}
	for _, tg := range targets {
		sum := w.e.sums[tg]
		if sum == nil {
			continue
		}
		for pt, mode := range sum.Locks {
			if k, ok := w.mapPoint(call, pt); ok && hit[k] == nil && relocked(s[k], mode) {
				hit[k] = tg
			}
		}
	}
	first := len(w.e.relocks)
	for k, tg := range hit {
		w.e.relocks = append(w.e.relocks, &Relock{Unit: w.u, Pos: call.Pos(), Callee: tg, Lock: k.String(), HeldAt: s[k].at})
	}
	sort.Slice(w.e.relocks[first:], func(i, j int) bool { return w.e.relocks[first+i].Lock < w.e.relocks[first+j].Lock })
}

// callOperand is the expression a call binds to the callee's receiver
// (idx -1) or parameter idx, nil when the call has none; &x as a
// lock-carrying operand is the same object as x.
func callOperand(call *ast.CallExpr, idx int) ast.Expr {
	var operand ast.Expr
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && idx == -1 {
		operand = sel.X
	} else if idx >= 0 && idx < len(call.Args) {
		operand = call.Args[idx]
	}
	if un, ok := ast.Unparen(operand).(*ast.UnaryExpr); ok && un.Op == token.AND {
		operand = un.X
	}
	return operand
}

// mapPoint translates a callee summary point into a caller state key
// through a specific call: globals pass through; receiver and
// parameter points resolve the corresponding operand's object chain
// and append the point's path.
func (w *walker) mapPoint(call *ast.CallExpr, pt Point) (key, bool) {
	if pt.Idx == PointGlobal {
		return key{root: pt.Obj, path: pt.Path}, true
	}
	root, path, ok := exprKey(w.u.Info, callOperand(call, pt.Idx))
	return key{root: root, path: joinPath(path, pt.Path)}, ok
}

// exprKey resolves an object chain to (root object, dotted field
// path): s.mu → (s, "mu"); mu → (mu, ""); (*c).state.mu →
// (c, "state.mu"). Chains through calls or index expressions are not
// resolvable.
func exprKey(info *types.Info, e ast.Expr) (types.Object, string, bool) {
	var parts []string
	cur := ast.Unparen(e)
	for {
		switch t := cur.(type) {
		case *ast.Ident:
			obj := info.ObjectOf(t)
			if obj == nil {
				return nil, "", false
			}
			for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
				parts[i], parts[j] = parts[j], parts[i]
			}
			return obj, strings.Join(parts, "."), true
		case *ast.SelectorExpr:
			parts = append(parts, t.Sel.Name)
			cur = ast.Unparen(t.X)
		case *ast.StarExpr:
			cur = ast.Unparen(t.X)
		default:
			return nil, "", false
		}
	}
}
