// Package lockset implements the interprocedural lockset engine under
// the lock-flow rule: a module-wide self-deadlock analysis that
// composes the flow package's call graph with the typestate package's
// per-function control-flow graphs.
//
// The analysis has two layers:
//
//  1. A MUST-lockset dataflow per function body: at every program
//     point, the set of mutexes that are held on EVERY path reaching
//     it. Joins are intersections (the dual of the typestate powerset
//     rules — a lock held on only one incoming path is not held),
//     Lock/RLock adds a key, Unlock/RUnlock removes it, and a deferred
//     unlock keeps the lock held for the remainder of the function
//     while excluding it from the exit summary.
//
//  2. Interprocedural lock summaries, iterated to a fixed point over
//     the call graph: a function that acquires a mutex reachable from
//     its receiver, a parameter, or a package-level variable and still
//     holds it at exit exports an Acquires point; a function that
//     releases a mutex it never acquired exports a Releases point.
//     Call sites map the callee's points back through the receiver and
//     argument expressions, so lock()/unlock() helper pairs — and
//     helpers calling helpers — keep the caller's lockset exact. Beside
//     them a summary carries Locks, every mutex the function may lock
//     anywhere in its body or through a callee, with the mode: a lock
//     call, or a call whose mapped Locks hit a key the caller already
//     holds, is a re-acquisition (Result.Relocks, the lock-flow rule).
//
// Every function body starts with an empty lockset. Goroutine spawn
// points keep it that way: a function literal behind a `go` statement,
// or stored rather than called on the spot, starts empty — locks held
// where it is written do not hold where it runs. Deferred closures,
// literals passed to a call, and immediate calls inherit the lockset at
// their syntactic position.
//
// Like flow and typestate, the package is stdlib-only and documents
// its unsound corners instead of chasing them (see DESIGN.md "Lockset
// analysis"): aliasing through locals is invisible, and interface calls
// apply the union of all known implementations' summaries.
package lockset

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"sort"

	"github.com/reliable-cda/cda/internal/analysis/flow"
	"github.com/reliable-cda/cda/internal/analysis/typestate"
)

// maxRounds bounds the summary fixed point. Acquire propagation alone
// is monotone, but Releases can shrink downstream locksets, so the
// combined iteration is cut off deterministically rather than proven
// convergent. Functions are summarized callees first, so only
// recursion needs a second round at all.
const maxRounds = 8

// key identifies one mutex as seen from inside a function body: the
// root object (receiver, parameter, global, or local) plus the dotted
// field path down to the sync.Mutex/RWMutex.
type key struct {
	root types.Object
	path string
}

// facts is the per-key dataflow state.
type facts uint8

const (
	// held: the lock is held on every path reaching this point.
	held facts = 1 << iota
	// deferredRelease: a deferred unlock covers the lock — it stays
	// held to the end of the function but is released when the
	// function returns, so it must not appear in the exit summary.
	deferredRelease
	// exclusive: taken by Lock (not RLock) on some path.
	exclusive
)

// hold is what the state knows about one held mutex: its facts and
// where this body took it.
type hold struct {
	f  facts
	at token.Pos
}

// state is the must-lockset at one program point.
type state map[key]hold

func (s state) clone() state { return maps.Clone(s) }

// meet intersects o into s — the must-analysis join — and reports
// whether s changed. A key survives only when held on both sides; a
// deferred release or an exclusive acquisition on either side is
// remembered (conservative for the exit summary: the lock will not
// outlive the function), and the earliest acquisition site wins.
func (s state) meet(o state) bool {
	changed := false
	for k, h := range s {
		oh, ok := o[k]
		if !ok || oh.f&held == 0 {
			delete(s, k)
			changed = true
			continue
		}
		n := hold{f: h.f | oh.f&(deferredRelease|exclusive), at: min(h.at, oh.at)}
		if n != h {
			s[k] = n
			changed = true
		}
	}
	return changed
}

// PointGlobal marks a Point rooted at a package-level variable.
const PointGlobal = -2

// Point is one caller-mappable mutex in a function summary: rooted at
// the receiver (Idx -1), a parameter (Idx >= 0), or a package-level
// variable (Idx PointGlobal, Obj set), with the field path to the
// mutex.
type Point struct {
	Idx  int
	Path string
	Obj  types.Object
}

// Mode says how a mutex is taken: RLock is Shared, Lock is Exclusive.
// A summary point that a function may take either way carries both.
type Mode uint8

const (
	Shared Mode = 1 << iota
	Exclusive
)

// Summary is one function's interprocedural lock behaviour.
type Summary struct {
	// Acquires are mutexes the function locks and still holds on every
	// normal return (lock() helpers).
	Acquires map[Point]bool
	// Releases are mutexes the function unlocks without having locked
	// them itself (unlock() helpers).
	Releases map[Point]bool
	// Locks are mutexes the function may lock at any point of its
	// body, directly or through a callee, held at return or not.
	// Function literals and go-spawned calls do not count: they may
	// run after the body, or elsewhere.
	Locks map[Point]Mode
}

func newSummary() *Summary {
	return &Summary{Acquires: map[Point]bool{}, Releases: map[Point]bool{}, Locks: map[Point]Mode{}}
}

func summaryEqual(a, b *Summary) bool {
	return maps.Equal(a.Acquires, b.Acquires) && maps.Equal(a.Releases, b.Releases) && maps.Equal(a.Locks, b.Locks)
}

// Relock is one re-acquisition of a mutex the body already holds on
// every path: sync.Mutex is not reentrant, so the call never returns.
// RLock under RLock is not one.
type Relock struct {
	Unit *flow.Unit
	// Pos is the lock call, or the call whose callee locks.
	Pos token.Pos
	// Callee is the called function that may lock; nil when Pos is the
	// lock call itself.
	Callee *types.Func
	// Lock renders the mutex as the body names it ("c.mu"); HeldAt is
	// where the body took it.
	Lock   string
	HeldAt token.Pos
}

// Result is the module-wide analysis output lock-flow consumes.
type Result struct {
	// Summaries maps every declared function to its lock summary.
	Summaries map[*types.Func]*Summary
	// Relocks lists every re-acquisition, in the recording pass's
	// (deterministic) order.
	Relocks []*Relock
}

// engine carries the per-run state.
type engine struct {
	g       *flow.Graph
	sums    map[*types.Func]*Summary
	cfgs    map[*ast.BlockStmt]*typestate.CFG
	relocks []*Relock
}

// Analyze runs the full lockset analysis over the module graph:
// summaries to a fixed point, callees first, then one recording pass
// that walks every function that can touch a lockset with the final
// summaries and collects the re-acquisitions.
func Analyze(g *flow.Graph) *Result {
	e := &engine{
		g:    g,
		sums: map[*types.Func]*Summary{},
		cfgs: map[*ast.BlockStmt]*typestate.CFG{},
	}
	fns := e.calleesFirst()
	index := make(map[*types.Func]int, len(fns))
	for i, fn := range fns {
		e.sums[fn] = newSummary()
		index[fn] = i
	}
	for round, again := 0, true; again && round < maxRounds; round++ {
		again = false
		for i, fn := range fns {
			ns := newSummary()
			if !e.lockFree(fn) {
				ns = e.computeSummary(fn)
			}
			if summaryEqual(e.sums[fn], ns) {
				continue
			}
			e.sums[fn] = ns
			// Callees come first: only a caller summarized earlier in
			// this round — recursion — has read the summary this replaces.
			for _, c := range g.Callers[fn] {
				if index[c.Caller] <= i {
					again = true
				}
			}
		}
	}
	for _, fn := range fns {
		if e.lockFree(fn) {
			continue // no lock event anywhere in it: nothing to re-acquire
		}
		info := e.g.Funcs[fn]
		e.solveAndReplay(info.Decl.Body, state{}, walker{e: e, u: info.Unit, fn: fn, rec: true})
	}
	return &Result{Summaries: e.sums, Relocks: e.relocks}
}

// lockFree reports whether nothing fn calls (its literals included) can
// touch a lockset — no method of a mutex, no function with a summary —
// so its own summary is empty without walking the body.
func (e *engine) lockFree(fn *types.Func) bool {
	for _, edge := range e.g.Edges[fn] {
		for _, callee := range e.g.CalleesOf(edge) {
			if recv := callee.Type().(*types.Signature).Recv(); recv != nil && isMutex(recv.Type()) {
				return false
			}
			if sum := e.sums[callee]; sum != nil && len(sum.Locks)+len(sum.Releases) > 0 {
				return false
			}
		}
	}
	return true
}

// calleesFirst orders the graph's functions deterministically so that,
// recursion aside, each follows everything it calls: a depth-first
// post-order over the call edges (interface calls reach every known
// implementation) from the functions in name order.
func (e *engine) calleesFirst() []*types.Func {
	type named struct {
		name string
		fn   *types.Func
	}
	roots := make([]named, 0, len(e.g.Funcs))
	for fn := range e.g.Funcs {
		roots = append(roots, named{fn.FullName(), fn})
	}
	sort.Slice(roots, func(i, j int) bool {
		a, b := roots[i], roots[j]
		if a.name != b.name {
			return a.name < b.name
		}
		return a.fn.Pos() < b.fn.Pos()
	})
	out := make([]*types.Func, 0, len(roots))
	done := map[*types.Func]bool{}
	var visit func(fn *types.Func)
	visit = func(fn *types.Func) {
		if done[fn] || e.g.Funcs[fn] == nil {
			return
		}
		done[fn] = true
		for _, edge := range e.g.Edges[fn] {
			for _, callee := range e.g.CalleesOf(edge) {
				visit(callee)
			}
		}
		out = append(out, fn)
	}
	for _, r := range roots {
		visit(r.fn)
	}
	return out
}

// cfgFor builds (and caches) the CFG of a function or literal body.
func (e *engine) cfgFor(u *flow.Unit, body *ast.BlockStmt) *typestate.CFG {
	if cfg, ok := e.cfgs[body]; ok {
		return cfg
	}
	cfg := typestate.BuildTyped(u.Info, body)
	e.cfgs[body] = cfg
	return cfg
}

// computeSummary derives one function's summary from the current
// round's callee summaries: solve the must-lockset to a fixed point,
// then replay once to collect release-at-entry and may-lock points and
// read the exit lockset.
func (e *engine) computeSummary(fn *types.Func) *Summary {
	info := e.g.Funcs[fn]
	sum := newSummary()
	exit := e.solveAndReplay(info.Decl.Body, state{}, walker{e: e, u: info.Unit, fn: fn, sum: sum})
	for k, h := range exit {
		if h.f&held == 0 || h.f&deferredRelease != 0 {
			continue
		}
		if pt, ok := pointFor(fn, k); ok {
			sum.Acquires[pt] = true
		}
	}
	return sum
}

// solveAndReplay computes the fixed point over the body's CFG, then
// replays every reachable block once with its converged in-state and
// w's recording switches on, returning the state at the normal exit.
// Literal bodies found during the replay are analyzed recursively by
// the walker with entry locksets per their spawn classification.
func (e *engine) solveAndReplay(body *ast.BlockStmt, entry state, w walker) state {
	cfg := e.cfgFor(w.u, body)
	in := map[*typestate.Block]state{cfg.Entry: entry.clone()}
	queue := []*typestate.Block{cfg.Entry}
	queued := map[*typestate.Block]bool{cfg.Entry: true}
	for len(queue) > 0 {
		b := queue[0]
		queue = queue[1:]
		queued[b] = false
		s := in[b].clone()
		sw := &walker{e: e, u: w.u, fn: w.fn, s: s}
		for _, n := range b.Nodes {
			sw.node(n)
		}
		for _, edge := range b.Succs {
			tgt, ok := in[edge.To]
			if !ok {
				in[edge.To] = s.clone()
			} else if !tgt.meet(s) {
				continue
			}
			if !queued[edge.To] {
				queued[edge.To] = true
				queue = append(queue, edge.To)
			}
		}
	}
	// Replay in block order: deterministic, one visit per node.
	for _, b := range cfg.Blocks {
		s, ok := in[b]
		if !ok {
			continue // unreachable
		}
		rw := w
		rw.s = s.clone()
		for _, n := range b.Nodes {
			rw.node(n)
		}
	}
	return in[cfg.Exit]
}

// pointFor maps a lock key to a caller-mappable summary point:
// receiver, parameter, or package-level variable. Locals are not
// mappable.
func pointFor(fn *types.Func, k key) (Point, bool) {
	idx, ok := rootClass(fn, k.root)
	if !ok {
		return Point{}, false
	}
	pt := Point{Idx: idx, Path: k.path}
	if idx == PointGlobal {
		pt.Obj = k.root
	}
	return pt, true
}

// rootClass classifies an object against a declared function's frame:
// receiver (-1), parameter index, or PointGlobal for package-level
// variables. Everything else — locals, named results, literal params —
// is not caller-mappable.
func rootClass(fn *types.Func, obj types.Object) (int, bool) {
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
		return PointGlobal, true
	}
	return 0, false
}

// callTargets resolves a call to its declared targets, adding every
// known implementation when the callee is an interface method.
func (e *engine) callTargets(u *flow.Unit, call *ast.CallExpr) []*types.Func {
	callee := flow.CalleeOf(u.Info, call)
	if callee == nil {
		return nil
	}
	targets := []*types.Func{callee}
	if sig, ok := callee.Type().(*types.Signature); ok && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
		targets = append(targets, e.g.Impls[callee]...)
	}
	return targets
}

// joinPath concatenates two dotted field paths.
func joinPath(a, b string) string {
	switch {
	case a == "":
		return b
	case b == "":
		return a
	}
	return a + "." + b
}

// namedOf unwraps one pointer level and returns the named type, or
// nil.
func namedOf(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// isMutex reports whether t is sync.Mutex or sync.RWMutex, unwrapping
// one pointer level.
func isMutex(t types.Type) bool {
	named := namedOf(t)
	if named == nil || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return false
	}
	return named.Obj().Name() == "Mutex" || named.Obj().Name() == "RWMutex"
}
