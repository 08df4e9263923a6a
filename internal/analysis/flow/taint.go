package flow

import (
	"go/ast"
	"go/types"
)

// Taint is the result of propagating taint from designated source
// calls through the module: per-function tainted value nodes, plus
// the interprocedural return/parameter bits the worklist converged on.
type Taint struct {
	g        *Graph
	isSource func(*types.Func) bool
	// tainted holds, per function, the value nodes carrying
	// source-derived data from any route — tainted parameters
	// included. Rules consult this set at sinks.
	tainted map[*types.Func]map[node]bool
	// noParam holds the argument-independent subset: taint reachable
	// without seeding any parameter. It drives ReturnTainted, so a
	// function whose return depends only on its arguments does not
	// poison every call site once one caller feeds it taint
	// (argument-dependent flow is handled per call site through
	// Summary.ParamToReturn instead).
	noParam map[*types.Func]map[node]bool
	// ReturnTainted marks functions whose return values carry
	// source-derived data regardless of what the caller passes in.
	ReturnTainted map[*types.Func]bool
	// ParamTainted marks parameters (index -1 = receiver) that may
	// receive source-derived data from some caller.
	ParamTainted map[*types.Func]map[int]bool
}

// Propagate runs the interprocedural taint fixed point: results of
// calls for which isSource returns true are tainted; taint flows
// through intra-function derivation edges, through callee returns
// (via summaries), into callee parameters at call sites, and back out
// through pointer-like parameters the callee writes into. The
// worklist converges because taint bits only ever turn on.
func (g *Graph) Propagate(isSource func(*types.Func) bool) *Taint {
	t := &Taint{
		g:             g,
		isSource:      isSource,
		tainted:       map[*types.Func]map[node]bool{},
		noParam:       map[*types.Func]map[node]bool{},
		ReturnTainted: map[*types.Func]bool{},
		ParamTainted:  map[*types.Func]map[int]bool{},
	}
	flows := g.flows()
	g.Summaries() // ensure ParamToReturn is converged before seeding
	for fn := range flows {
		t.tainted[fn] = map[node]bool{}
		t.noParam[fn] = map[node]bool{}
		t.ParamTainted[fn] = map[int]bool{}
	}
	// Seed every function once, then iterate to global convergence.
	work := map[*types.Func]bool{}
	for fn := range flows {
		work[fn] = true
	}
	for len(work) > 0 {
		var fn *types.Func
		for f := range work {
			fn = f
			break
		}
		delete(work, fn)
		t.processFunc(fn, flows[fn], work)
	}
	return t
}

// sourceCall reports whether the call site's results are taint
// sources, considering interface implementations.
func (t *Taint) sourceCall(cs *callSite) bool {
	if cs.callee == nil {
		return false
	}
	for _, target := range t.g.CalleesOf(Edge{Callee: cs.callee, Kind: edgeKindOf(cs)}) {
		if t.isSource(target) {
			return true
		}
	}
	return false
}

func edgeKindOf(cs *callSite) EdgeKind {
	if cs.iface {
		return EdgeInterface
	}
	return EdgeStatic
}

// processFunc recomputes one function's two tainted sets — the full
// set (tainted parameters included) and the argument-independent set —
// and pushes any newly discovered interprocedural facts onto the
// worklist.
func (t *Taint) processFunc(fn *types.Func, ff *funcFlow, work map[*types.Func]bool) {
	if ff == nil {
		return
	}
	full, np := t.tainted[fn], t.noParam[fn]
	for idx, obj := range ff.params {
		if t.ParamTainted[fn][idx] {
			full[obj] = true
		}
	}
	for _, cs := range ff.calls {
		if t.sourceCall(cs) {
			full[cs.call] = true
			np[cs.call] = true
		}
	}
	t.iterate(ff, full) // full growth surfaces via the ParamTainted export below
	grewNP := t.iterate(ff, np)
	// Export: the return is tainted only when the argument-independent
	// set reaches it; argument-dependent flow surfaces at each call
	// site through ParamToReturn instead.
	retFlip := false
	if np[ff.ret()] && !t.ReturnTainted[fn] {
		t.ReturnTainted[fn] = true
		retFlip = true
	}
	// Callers read our noParam set (write-backs) and ReturnTainted.
	if grewNP || retFlip {
		for _, e := range t.g.Callers[fn] {
			work[e.Caller] = true
		}
	}
	// Export: tainted arguments become tainted callee parameters.
	for _, cs := range ff.calls {
		for _, target := range t.callTargetsWithBodies(cs) {
			tf := t.g.flows()[target]
			for idx := range tf.params {
				if t.ParamTainted[target][idx] {
					continue
				}
				if argNodesTainted(cs, idx, full) {
					t.ParamTainted[target][idx] = true
					work[target] = true
				}
			}
		}
	}
}

// iterate runs intra-function propagation over one tainted set,
// interleaved with call-result and call-writeback rules, until stable.
// It reports whether the set grew.
func (t *Taint) iterate(ff *funcFlow, set map[node]bool) bool {
	before := len(set)
	for changed := true; changed; {
		changed = false
		mark := func(n node) {
			if !set[n] {
				set[n] = true
				changed = true
			}
		}
		for src, dsts := range ff.edges {
			if !set[src] {
				continue
			}
			for _, d := range dsts {
				mark(d)
			}
		}
		for _, cs := range ff.calls {
			t.applyCallRules(cs, set, mark)
		}
	}
	return len(set) > before
}

// applyCallRules marks the call's result node tainted when (a) a
// tainted value can flow through the callee to its return, or (b) the
// callee's own return is tainted independent of arguments; and taints
// caller-side argument objects the callee writes tainted data into.
func (t *Taint) applyCallRules(cs *callSite, set map[node]bool, mark func(node)) {
	targets := t.callTargetsWithBodies(cs)
	anyArgTainted := func() bool {
		for i := -1; i < len(cs.args); i++ {
			if argNodesTainted(cs, i, set) {
				return true
			}
		}
		return false
	}
	if len(targets) == 0 {
		// Unknown callee (stdlib, builtin, func value): pass-through —
		// tainted in, tainted out. strings.Join(tainted, ...) stays
		// tainted; a pure stdlib call over clean values stays clean.
		if cs.callee == nil || !t.isSource(cs.callee) {
			if anyArgTainted() {
				mark(cs.call)
			}
		}
		return
	}
	sums := t.g.Summaries()
	for _, target := range targets {
		if t.ReturnTainted[target] {
			mark(cs.call)
		}
		s := sums[target]
		if s == nil {
			if anyArgTainted() {
				mark(cs.call)
			}
			continue
		}
		for i, flows := range s.ParamToReturn {
			if flows && argNodesTainted(cs, i, set) {
				mark(cs.call)
			}
		}
		// Write-back: the callee stores tainted data into a mutable
		// parameter; the caller's argument object is now tainted. The
		// taint must be argument-independent (callee's noParam set) or
		// enter through this very call site — otherwise one tainted
		// caller would poison every other caller's arguments.
		tf := t.g.flows()[target]
		for idx, obj := range tf.params {
			if !s.TaintsParam[idx] {
				continue
			}
			if !t.noParam[target][obj] && !anyArgTainted() {
				continue
			}
			for _, n := range argRoots(cs, idx) {
				mark(n)
			}
		}
	}
}

// callTargetsWithBodies resolves a call to targets that have declared
// bodies among the units.
func (t *Taint) callTargetsWithBodies(cs *callSite) []*types.Func {
	var out []*types.Func
	if cs.callee == nil {
		return nil
	}
	for _, target := range t.g.CalleesOf(Edge{Callee: cs.callee, Kind: edgeKindOf(cs)}) {
		if _, ok := t.g.Funcs[target]; ok {
			out = append(out, target)
		}
	}
	return out
}

// argNodesTainted reports whether any value node of argument idx
// (-1 = receiver) is tainted.
func argNodesTainted(cs *callSite, idx int, set map[node]bool) bool {
	var nodes []node
	if idx == -1 {
		nodes = cs.recv
	} else if idx < len(cs.args) {
		nodes = cs.args[idx]
	}
	for _, n := range nodes {
		if set[n] {
			return true
		}
	}
	return false
}

// argRoots returns the object nodes of argument idx that a callee
// write-back can reach. Every variable the argument mentions counts:
// TaintsParam is only set for pointer-like parameters, so the argument
// is an address (&s) or pointer-valued expression whose base variable
// the callee writes through — the base's own type (e.g. string for &s)
// says nothing about writability.
func argRoots(cs *callSite, idx int) []node {
	var nodes []node
	if idx == -1 {
		nodes = cs.recv
	} else if idx < len(cs.args) {
		nodes = cs.args[idx]
	}
	var out []node
	for _, n := range nodes {
		if v, ok := n.(*types.Var); ok {
			out = append(out, v)
		}
	}
	return out
}

// ExprTainted reports whether any value the expression reads is
// tainted in fn.
func (t *Taint) ExprTainted(fn *types.Func, e ast.Expr) bool {
	info := t.g.Funcs[fn]
	if info == nil {
		return false
	}
	set := t.tainted[fn]
	for _, n := range mentionNodes(info.Unit.Info, e) {
		if set[n] {
			return true
		}
	}
	// A direct source (or tainted-return) call used inline as the
	// expression itself.
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if set[call] {
				found = true
			}
		}
		return true
	})
	return found
}
