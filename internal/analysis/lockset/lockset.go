// Package lockset implements the interprocedural lockset engine under
// the cdarace rule family (racy-access, atomic-plain-mix,
// guard-escape) and lock-flow: a module-wide static race and
// self-deadlock analysis that composes the flow package's call graph
// with the typestate package's per-function control-flow graphs.
//
// The analysis has three layers:
//
//  1. A MUST-lockset dataflow per function body: at every program
//     point, the set of mutexes that are held on EVERY path reaching
//     it. Joins are intersections (the dual of the typestate powerset
//     rules — a lock held on only one incoming path does not guard
//     anything), Lock/RLock adds a key, Unlock/RUnlock removes it,
//     and a deferred unlock keeps the lock held for the remainder of
//     the function while excluding it from the exit summary.
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
//     The recording pass gives every function a caller-holds
//     precondition: an unexported function that is only ever called —
//     never used as a value, never an interface-dispatch target — is
//     analyzed with the intersection of its call sites' locksets,
//     mapped into its own receiver/parameter points, as its entry
//     state. That is what a "caller holds s.mu" comment says, read
//     off the call sites instead of trusted.
//
//  3. Guard inference, field by field: every read or write of a
//     struct field reachable from a receiver, parameter, or global is
//     recorded together with the same-object locks held at that point.
//     A field whose accesses are dominantly (>= 3/4, and at least 2)
//     under one mutex is inferred "guarded by" it; the rules built on
//     top flag the minority accesses that touch the field with the
//     lockset empty.
//
// Goroutine spawn points clear the lockset: a function literal behind
// a `go` statement is analyzed with an empty entry lockset — locks held
// at the spawn site do not protect the code that runs on the other
// goroutine.
// Other literals (deferred closures, sort.Slice comparators, immediate
// calls) inherit the lockset at their syntactic position. Accesses
// whose base object is a plain local variable are excluded entirely:
// a freshly constructed object is unshared until it escapes, so
// constructor writes never dilute guard inference.
//
// Like flow and typestate, the package is stdlib-only and documents
// its unsound corners instead of chasing them (see DESIGN.md "Lockset
// analysis"): aliasing through locals is invisible, a write under
// RLock counts as guarded, and interface calls apply the union of all
// known implementations' summaries.
package lockset

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"sort"
	"strings"

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
// where this body took it. at is NoPos for a lock held only by the
// caller-holds precondition — the caller took it.
type hold struct {
	f  facts
	at token.Pos
}

// state is the must-lockset at one program point.
type state map[key]hold

func (s state) clone() state { return maps.Clone(s) }

// assumed is s as a lockset somebody else took: the same keys with no
// acquisition site, which is what keeps relocked quiet about them.
func (s state) assumed() state {
	out := make(state, len(s))
	for k, h := range s {
		out[k] = hold{f: h.f}
	}
	return out
}

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
		n := hold{f: h.f | oh.f&(deferredRelease|exclusive), at: h.at}
		if oh.at != token.NoPos && (n.at == token.NoPos || oh.at < n.at) {
			n.at = oh.at
		}
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

// EscapeKind classifies how a field access leaks its reference.
type EscapeKind int

const (
	// EscapeNone: an ordinary read or write.
	EscapeNone EscapeKind = iota
	// EscapeReturn: the field itself (or its address) is a return
	// result — the reference outlives any lock region.
	EscapeReturn
	// EscapeGo: the field is passed as an argument to a go statement's
	// call — the reference crosses a goroutine boundary.
	EscapeGo
)

// Access is one recorded read or write of a shared struct field.
type Access struct {
	Unit   *flow.Unit
	Fn     *types.Func // enclosing declared function (literals included)
	Pos    token.Pos
	Write  bool
	Escape EscapeKind
	// Addr marks address-of accesses (&x.f): the reference itself was
	// taken, so an escape aliases the field even when its type is not
	// a pointer/slice/map.
	Addr bool
	// Held are the same-root-object lock field paths held (must) at
	// the access.
	Held map[string]bool
}

// GroupKey identifies a field across the module: the fully qualified
// root struct type plus the dotted field path.
type GroupKey struct {
	Type string
	Path string
}

// Group collects every access to one field, with the inferred guard.
type Group struct {
	Key GroupKey
	// Display renders the field for diagnostics ("member.cursors").
	Display string
	// Accesses are the plain (non-atomic) reads and writes, in
	// deterministic order.
	Accesses []*Access
	// Atomics are accesses through sync/atomic functions.
	Atomics []*Access
	// Guard is the inferred guarding mutex field path ("" when no
	// dominant guard exists); Guarded counts accesses holding it.
	Guard   string
	Guarded int
	// Ref marks pointer/slice/map fields — the ones whose escape
	// aliases guarded state.
	Ref bool
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

// Result is the module-wide analysis output the lock rules consume.
type Result struct {
	// Summaries maps every declared function to its lock summary.
	Summaries map[*types.Func]*Summary
	// Groups lists every accessed shared field, sorted by GroupKey.
	Groups []*Group
	// Relocks lists every re-acquisition, in the recording pass's
	// (deterministic) order.
	Relocks []*Relock
}

// engine carries the per-run state.
type engine struct {
	g       *flow.Graph
	sums    map[*types.Func]*Summary
	cfgs    map[*ast.BlockStmt]*typestate.CFG
	pre     map[*types.Func]*precond
	groups  map[GroupKey]*Group
	relocks []*Relock

	// fresh holds the current declared function's freshly constructed
	// locals during the recording pass.
	fresh map[types.Object]bool
}

// precond tallies the call sites of one candidate for the caller-holds
// precondition, in the function's own receiver/parameter/global points.
type precond struct {
	// uses counts the identifiers naming the function anywhere in the
	// module. The precondition stands only when the recording pass has
	// walked that many call sites before it reaches the function: a use
	// as a value, in a package-level initializer, in a caller analyzed
	// later (recursion), or anywhere else the walk does not reach is a
	// caller nobody checked.
	uses  int
	seen  int           // call sites walked so far
	sites map[int]int   // per operand index: those whose operand is not rooted at a fresh local
	held  map[Point]int // per point: those that held it
}

// preconditions picks the candidates: unexported functions with only
// static call edges. Exported functions have callers outside the
// loaded packages; an interface-dispatch target or a function used as
// a value is called from places no call site names.
func preconditions(g *flow.Graph) map[*types.Func]*precond {
	pre := map[*types.Func]*precond{}
candidates:
	for fn := range g.Funcs {
		if fn.Exported() {
			continue
		}
		for _, e := range g.Callers[fn] {
			if e.Kind != flow.EdgeStatic {
				continue candidates
			}
		}
		pre[fn] = &precond{sites: map[int]int{}, held: map[Point]int{}}
	}
	for _, u := range g.Units {
		for _, obj := range u.Info.Uses {
			if fn, ok := obj.(*types.Func); ok && pre[fn] != nil {
				pre[fn].uses++
			}
		}
	}
	return pre
}

// Analyze runs the full lockset analysis over the module graph:
// summaries to a fixed point, callees first, then one recording pass,
// callers first — so that by the time a function is recorded every
// call site of it has been, with its lockset, and what they all held
// is the function's entry state. Helpers that call helpers need no
// iteration; a recursive one simply has a call site not yet walked and
// keeps the empty entry.
func Analyze(g *flow.Graph) *Result {
	e := &engine{
		g:      g,
		sums:   map[*types.Func]*Summary{},
		cfgs:   map[*ast.BlockStmt]*typestate.CFG{},
		pre:    preconditions(g),
		groups: map[GroupKey]*Group{},
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
	for i := len(fns) - 1; i >= 0; i-- {
		info := e.g.Funcs[fns[i]]
		e.fresh = freshLocals(info.Unit, info.Decl.Body)
		e.solveAndReplay(info.Decl.Body, e.entryState(fns[i]), walker{e: e, u: info.Unit, fn: fns[i], rec: true})
	}
	return e.result()
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

// entryState is the caller-holds precondition as a lockset in fn's own
// frame: the points every call site held, once all of them have been
// walked. The keys carry no acquisition site: the caller took them.
func (e *engine) entryState(fn *types.Func) state {
	s := state{}
	p := e.pre[fn]
	if p == nil || p.seen != p.uses {
		return s
	}
	sig := fn.Type().(*types.Signature)
	for pt, n := range p.held {
		if n != p.sites[pt.Idx] {
			continue
		}
		root := pt.Obj
		switch {
		case pt.Idx == -1:
			root = sig.Recv()
		case pt.Idx >= 0:
			root = sig.Params().At(pt.Idx)
		}
		s[key{root: root, path: pt.Path}] = hold{f: held}
	}
	return s
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

// result assembles the sorted groups with guards inferred.
func (e *engine) result() *Result {
	groups := make([]*Group, 0, len(e.groups))
	for _, grp := range e.groups {
		inferGuard(grp)
		groups = append(groups, grp)
	}
	sort.Slice(groups, func(i, j int) bool {
		a, b := groups[i], groups[j]
		if a.Key.Type != b.Key.Type {
			return a.Key.Type < b.Key.Type
		}
		return a.Key.Path < b.Key.Path
	})
	return &Result{Summaries: e.sums, Groups: groups, Relocks: e.relocks}
}

// inferGuard picks the dominant-majority lock for one field: the most
// frequently held same-object mutex, provided it covers at least two
// accesses and at least 3/4 of them. Ties break lexicographically so
// the result is deterministic.
func inferGuard(grp *Group) {
	counts := map[string]int{}
	for _, a := range grp.Accesses {
		for p := range a.Held {
			counts[p]++
		}
	}
	paths := make([]string, 0, len(counts))
	for p := range counts {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	best, bestN := "", 0
	for _, p := range paths {
		if counts[p] > bestN {
			best, bestN = p, counts[p]
		}
	}
	if bestN >= 2 && bestN*4 >= len(grp.Accesses)*3 {
		grp.Guard, grp.Guarded = best, bestN
	}
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

// cutPath is the inverse of joinPath: full relative to prefix, when it
// lies at or under it.
func cutPath(full, prefix string) (string, bool) {
	switch {
	case prefix == "":
		return full, true
	case full == prefix:
		return "", true
	}
	return strings.CutPrefix(full, prefix+".")
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

// typeDisplay renders a named type for GroupKey ("pkg/path.T") and
// diagnostics ("T").
func typeDisplay(n *types.Named) (full, short string) {
	obj := n.Obj()
	short = obj.Name()
	if obj.Pkg() != nil {
		return obj.Pkg().Path() + "." + short, short
	}
	return short, short
}

// skipFieldType excludes fields that synchronize themselves (sync.*,
// sync/atomic.* values, channels) from access tracking: the mutexes
// ARE the guards, typed atomics are race-free by construction, and
// channel operations order themselves.
func skipFieldType(t types.Type) bool {
	if t == nil {
		return true
	}
	if named := namedOf(t); named != nil && named.Obj().Pkg() != nil {
		switch named.Obj().Pkg().Path() {
		case "sync", "sync/atomic":
			return true
		}
	}
	if _, ok := t.Underlying().(*types.Chan); ok {
		return true
	}
	return false
}

// refType reports whether escaping the field aliases shared state:
// pointers, slices, and maps.
func refType(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map:
		return true
	}
	return false
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

// isAtomicFunc reports whether fn is one of sync/atomic's package-level
// functions (atomic.AddInt64; the typed atomics' methods are not).
func isAtomicFunc(fn *types.Func) bool {
	return fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic" && fn.Type().(*types.Signature).Recv() == nil
}
