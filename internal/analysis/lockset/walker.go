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
// records field accesses, escapes and re-acquisitions, counts call
// sites toward the callees' caller-holds preconditions, and recurses
// into function literal bodies (the recording pass).
type walker struct {
	e   *engine
	u   *flow.Unit
	fn  *types.Func
	s   state
	rec bool
	sum *Summary
}

// accOpts qualifies one recorded access.
type accOpts struct {
	write  bool
	atomic bool
	escape EscapeKind
	addr   bool
}

// node dispatches one CFG node. The CFG lowers compound statements, so
// nodes are straight-line statements and steering expressions only.
func (w *walker) node(n ast.Node) {
	switch t := n.(type) {
	case *ast.GoStmt:
		w.goStmt(t)
	case *ast.DeferStmt:
		w.deferStmt(t)
	case *ast.ReturnStmt:
		for _, res := range t.Results {
			w.escapeExpr(res, EscapeReturn)
		}
	case *ast.AssignStmt:
		for _, rhs := range t.Rhs {
			w.expr(rhs)
		}
		for _, lhs := range t.Lhs {
			w.writeExpr(lhs)
		}
	case *ast.IncDecStmt:
		w.writeExpr(t.X)
	case *ast.ExprStmt:
		w.expr(t.X)
	case *ast.SendStmt:
		w.expr(t.Chan)
		w.expr(t.Value)
	default:
		if e, ok := n.(ast.Expr); ok {
			w.expr(e)
			return
		}
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

// expr evaluates one expression for reads, lock events, and literals.
func (w *walker) expr(e ast.Expr) {
	if e == nil {
		return
	}
	switch t := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		w.call(t)
	case *ast.FuncLit:
		// A literal stored or returned rather than called or passed
		// here (callback registration, immediate local): conservatively
		// analyzed with the lockset at its position — but it may run
		// after the region ends, so a lock it takes is no re-acquisition.
		w.lit(t, w.s.assumed())
	case *ast.SelectorExpr:
		if !w.access(t, accOpts{}) {
			w.children(t)
		}
	case *ast.UnaryExpr:
		if t.Op == token.AND && w.access(t.X, accOpts{addr: true}) {
			return
		}
		w.expr(t.X)
	default:
		w.children(t)
	}
}

// writeExpr evaluates an assignment target: the deepest field chain is
// a write; writes through an index or a dereference mutate the
// container field's contents and count against it.
func (w *walker) writeExpr(e ast.Expr) {
	switch t := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		if !w.access(t, accOpts{write: true}) {
			w.children(t)
		}
	case *ast.IndexExpr:
		w.writeExpr(t.X)
		w.expr(t.Index)
	case *ast.StarExpr:
		w.writeExpr(t.X)
	case *ast.Ident:
		// A plain local/global write with no field involved.
	default:
		w.expr(e)
	}
}

// escapeExpr evaluates a return result or go-call argument: a field
// chain (or its address) leaking whole is recorded with the escape
// kind; anything else is an ordinary evaluation.
func (w *walker) escapeExpr(e ast.Expr, kind EscapeKind) {
	u := ast.Unparen(e)
	if un, ok := u.(*ast.UnaryExpr); ok && un.Op == token.AND {
		if w.access(un.X, accOpts{escape: kind, addr: true}) {
			return
		}
	}
	if sel, ok := u.(*ast.SelectorExpr); ok {
		if w.access(sel, accOpts{escape: kind}) {
			return
		}
	}
	w.expr(e)
}

// call applies one call expression: lock events, sync/atomic
// operations, operand evaluation (literal arguments inherit the current
// lockset), and the callee's interprocedural summary.
func (w *walker) call(call *ast.CallExpr) {
	if op, ok := LockCall(w.u.Info, call); ok {
		w.lockOp(op, call.Pos(), false)
		return
	}
	targets := w.e.callTargets(w.u, call)
	if len(targets) > 0 && isAtomicFunc(targets[0]) {
		w.atomicCall(call, targets[0].Name())
		return
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.FuncLit:
		// Immediately invoked: runs here, under the current lockset.
		w.lit(fun, w.s.clone())
	case *ast.SelectorExpr:
		if !w.access(fun, accOpts{}) {
			w.children(fun)
		}
	default:
		w.expr(call.Fun)
	}
	for _, arg := range call.Args {
		if fl, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
			w.lit(fl, w.s.clone())
			continue
		}
		w.expr(arg)
	}
	w.tallySite(call, targets, w.s)
	w.applySummaries(call, targets, w.s, false)
}

// goStmt is a spawn point: literals run with an empty lockset, and
// every field chain handed to the call escapes to the new goroutine.
// The spawned call's lock effects happen over there — no summary is
// applied to this goroutine's state.
func (w *walker) goStmt(g *ast.GoStmt) {
	call := g.Call
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.FuncLit:
		w.lit(fun, state{})
	case *ast.SelectorExpr:
		if !w.access(fun, accOpts{escape: EscapeGo}) {
			w.children(fun)
		}
	default:
		w.expr(call.Fun)
	}
	for _, arg := range call.Args {
		if fl, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
			w.lit(fl, state{})
			continue
		}
		w.escapeExpr(arg, EscapeGo)
	}
	w.tallySite(call, w.e.callTargets(w.u, call), nil)
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
	// it can re-acquire, and what its callee may assume.
	atExit := state{}
	for k, h := range w.s {
		if h.f&deferredRelease != 0 {
			atExit[k] = h
		}
	}
	targets := w.e.callTargets(w.u, call)
	w.tallySite(call, targets, atExit)
	w.applySummaries(call, targets, atExit, true)
	// Receiver and arguments are evaluated at registration time.
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if !w.access(fun, accOpts{}) {
			w.children(fun)
		}
	default:
		w.expr(call.Fun)
	}
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
// walker, and through Result the race rules and lock-flow, and
// unlock-path directly, all read it.
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

// acquire adds k to the lockset, taken at pos. The guard rules ignore
// the mode — RLock counts as held (a write under RLock is a real race
// this analysis does not model; see DESIGN.md) — it is kept for
// relocked.
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
// inside read is tolerated, and a lock held only by the precondition
// is the call site's to report — the caller holds it and this
// function's Locks say it may lock it.
func relocked(h hold, mode Mode) bool {
	return h.f&held != 0 && h.at != token.NoPos && (mode&Exclusive != 0 || h.f&exclusive != 0)
}

// atomicCall records the sync/atomic access to &x.f and evaluates the
// remaining operands normally.
func (w *walker) atomicCall(call *ast.CallExpr, fname string) {
	write := !strings.HasPrefix(fname, "Load")
	for i, arg := range call.Args {
		if un, ok := ast.Unparen(arg).(*ast.UnaryExpr); ok && un.Op == token.AND && i == 0 {
			if w.access(un.X, accOpts{atomic: true, write: write, addr: true}) {
				continue
			}
		}
		w.expr(arg)
	}
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

// tallySite counts one call site, reached with lockset s, toward each
// candidate target's caller-holds precondition: per operand, the held
// mutexes reachable from it, as the callee's points. An operand rooted
// at a fresh local is skipped — the object is unpublished, whatever the
// callee touches through it cannot race — rather than counted as a
// caller without the lock.
func (w *walker) tallySite(call *ast.CallExpr, targets []*types.Func, s state) {
	if !w.rec {
		return
	}
	for _, tg := range targets {
		p := w.e.pre[tg]
		if p == nil {
			continue
		}
		p.seen++
		sig := tg.Type().(*types.Signature)
		for idx := -1; idx < sig.Params().Len(); idx++ {
			if idx == -1 && sig.Recv() == nil {
				continue
			}
			root, path, ok := exprKey(w.u.Info, callOperand(call, idx))
			if ok && w.e.fresh[root] {
				continue
			}
			p.sites[idx]++
			for k, h := range s {
				if rest, under := cutPath(k.path, path); under && k.root == root && h.f&held != 0 {
					p.held[Point{Idx: idx, Path: rest}]++
				}
			}
		}
		p.sites[PointGlobal]++
		for k, h := range s {
			if pt, ok := pointFor(tg, k); ok && pt.Idx == PointGlobal && h.f&held != 0 {
				p.held[pt]++
			}
		}
	}
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

// access records e as a shared-field access when it is a resolvable
// field chain, returning whether it was one (recorded or not) so
// callers know not to descend further — a chain never contains calls.
//
// Filters, in order: the deepest consecutive field path from the root
// is taken (reading s.a.b counts against a.b, not a); the root must
// be a variable — and not a local bound to a freshly constructed
// object, whose accesses are pre-publication by construction; fields
// that synchronize themselves (sync.*, typed atomics, channels) are
// skipped; the root's type must be a named struct so accesses unify
// module-wide by (type, path).
func (w *walker) access(e ast.Expr, o accOpts) bool {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	root, path, ftype, ok := w.fieldChain(sel)
	if !ok {
		return false
	}
	if !w.rec {
		return true
	}
	if w.e.fresh[root] || skipFieldType(ftype) {
		return true
	}
	named := namedOf(root.Type())
	if named == nil {
		return true
	}
	full, short := typeDisplay(named)
	gk := GroupKey{Type: full, Path: path}
	grp := w.e.groups[gk]
	if grp == nil {
		grp = &Group{Key: gk, Display: short + "." + path, Ref: refType(ftype)}
		w.e.groups[gk] = grp
	}
	a := &Access{
		Unit: w.u, Fn: w.fn, Pos: sel.Pos(),
		Write: o.write, Escape: o.escape, Addr: o.addr,
		Held: w.heldFor(root),
	}
	if o.atomic {
		grp.Atomics = append(grp.Atomics, a)
	} else {
		grp.Accesses = append(grp.Accesses, a)
	}
	return true
}

// fieldChain resolves the deepest consecutive field path of a selector
// chain: root variable, dotted path, and the final field's type.
// Trailing method selections are trimmed (m.breaker.Allow →
// (m, "breaker")); a package qualifier shifts the root to the
// package-level variable it names.
func (w *walker) fieldChain(e ast.Expr) (*types.Var, string, types.Type, bool) {
	var sels []*ast.SelectorExpr
	cur := ast.Unparen(e)
spine:
	for {
		switch t := cur.(type) {
		case *ast.SelectorExpr:
			sels = append(sels, t)
			cur = ast.Unparen(t.X)
		case *ast.StarExpr:
			cur = ast.Unparen(t.X)
		default:
			break spine
		}
	}
	id, ok := cur.(*ast.Ident)
	if !ok || len(sels) == 0 {
		return nil, "", nil, false
	}
	root := w.u.Info.ObjectOf(id)
	for i, j := 0, len(sels)-1; i < j; i, j = i+1, j-1 {
		sels[i], sels[j] = sels[j], sels[i]
	}
	if _, isPkg := root.(*types.PkgName); isPkg {
		// pkg.Var.field...: the first selector names the variable.
		root = w.u.Info.ObjectOf(sels[0].Sel)
		sels = sels[1:]
	}
	v, ok := root.(*types.Var)
	if !ok || len(sels) == 0 {
		return nil, "", nil, false
	}
	var parts []string
	var ftype types.Type
	for _, sel := range sels {
		fv, isVar := w.u.Info.ObjectOf(sel.Sel).(*types.Var)
		if !isVar || !fv.IsField() {
			break
		}
		parts = append(parts, fv.Name())
		ftype = fv.Type()
	}
	if len(parts) == 0 {
		return nil, "", nil, false
	}
	return v, strings.Join(parts, "."), ftype, true
}

// heldFor snapshots the lock field paths held (must) on the same root
// object at this point — the Eraser-style same-object lockset.
func (w *walker) heldFor(root types.Object) map[string]bool {
	out := map[string]bool{}
	for k, h := range w.s {
		if k.root == root && h.f&held != 0 {
			out[k.path] = true
		}
	}
	return out
}

// freshLocals finds locals bound to freshly constructed objects —
// composite literals, &composite, new(T) — anywhere in a declared
// function body (literals included). Accesses rooted at such a local
// are pre-publication writes in a constructor shape and are excluded
// from guard inference; a fresh local later rebound to shared state
// stays excluded, a documented unsound corner.
func freshLocals(u *flow.Unit, body *ast.BlockStmt) map[types.Object]bool {
	out := map[types.Object]bool{}
	mark := func(name ast.Expr, value ast.Expr) {
		id, ok := ast.Unparen(name).(*ast.Ident)
		if !ok || !freshExpr(value) {
			return
		}
		if obj := u.Info.ObjectOf(id); obj != nil {
			out[obj] = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch t := n.(type) {
		case *ast.AssignStmt:
			if len(t.Lhs) == len(t.Rhs) {
				for i := range t.Lhs {
					mark(t.Lhs[i], t.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(t.Names) == len(t.Values) {
				for i := range t.Names {
					mark(t.Names[i], t.Values[i])
				}
			}
		}
		return true
	})
	return out
}

// freshExpr reports whether e constructs a new object: T{...},
// &T{...}, or new(T).
func freshExpr(e ast.Expr) bool {
	switch t := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if t.Op == token.AND {
			_, ok := ast.Unparen(t.X).(*ast.CompositeLit)
			return ok
		}
	case *ast.CallExpr:
		if id, ok := ast.Unparen(t.Fun).(*ast.Ident); ok && id.Name == "new" {
			return true
		}
	}
	return false
}
