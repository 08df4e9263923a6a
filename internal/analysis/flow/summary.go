package flow

import (
	"go/ast"
	"go/token"
	"go/types"
)

// node is one value-flow vertex inside a function: a *types.Var (local,
// parameter, receiver, named result), a *ast.CallExpr (the call's
// results), or the per-function return sentinel.
type node any

// retSentinel is the unique "flows out through a return" vertex.
type retSentinel struct{ fn *types.Func }

// Summary is the per-function dataflow summary rules consume. The
// receiver is parameter index -1.
type Summary struct {
	Fn *types.Func
	// ParamToReturn reports which parameters can reach a return value,
	// transitively through callees (fixed-point over the call graph).
	ParamToReturn map[int]bool
	// TaintsParam reports pointer-like parameters the function may
	// write data into (so taint entering any parameter can surface in
	// the caller's argument object).
	TaintsParam map[int]bool
}

// funcFlow is the intra-function flow graph: object-granular,
// flow-insensitive derivation edges plus the call sites that splice
// functions together during fixed-point iteration.
type funcFlow struct {
	fn    *types.Func
	info  *FuncInfo
	edges map[node][]node // src → values derived from it
	calls []*callSite
	// params maps parameter index (-1 = receiver) to its object.
	params map[int]types.Object
}

type callSite struct {
	call   *ast.CallExpr
	callee *types.Func // nil for builtins/func values
	iface  bool
	// args[i] holds the value nodes mentioned by argument i; recv the
	// nodes of the method receiver expression (index -1).
	args [][]node
	recv []node
}

// ret returns the function's return sentinel.
func (ff *funcFlow) ret() node { return retSentinel{ff.fn} }

func (ff *funcFlow) addEdge(from, to node) {
	if from == nil || to == nil || from == to {
		return
	}
	for _, have := range ff.edges[from] {
		if have == to {
			return
		}
	}
	ff.edges[from] = append(ff.edges[from], to)
}

// mentionNodes collects the value nodes an expression reads: variable
// objects and call expressions. Function literals are skipped — a
// closure passed as a value does not hand its captured state to the
// callee at the call site; its own statements are processed separately
// because they live in the same declaration body.
func mentionNodes(info *types.Info, e ast.Expr) []node {
	var out []node
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			out = append(out, n)
			return true
		case *ast.Ident:
			if v, ok := objOf(info, n).(*types.Var); ok {
				out = append(out, v)
			}
		}
		return true
	})
	return out
}

// rootObj resolves the object an assignable or address expression
// reaches: x, x.f, x[i], *x, &x, and chains thereof all root at x.
func rootObj(info *types.Info, e ast.Expr) types.Object {
	for {
		switch t := ast.Unparen(e).(type) {
		case *ast.Ident:
			if v, ok := objOf(info, t).(*types.Var); ok {
				return v
			}
			return nil
		case *ast.SelectorExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.StarExpr:
			e = t.X
		case *ast.UnaryExpr:
			if t.Op != token.AND {
				return nil
			}
			e = t.X
		default:
			return nil
		}
	}
}

// buildFlow constructs the intra-function flow graph for one declared
// function.
func buildFlow(fn *types.Func, info *FuncInfo) *funcFlow {
	u := info.Unit
	ff := &funcFlow{
		fn:     fn,
		info:   info,
		edges:  map[node][]node{},
		params: map[int]types.Object{},
	}
	sig := fn.Type().(*types.Signature)
	if recv := sig.Recv(); recv != nil {
		ff.params[-1] = recv
	}
	for i := 0; i < sig.Params().Len(); i++ {
		ff.params[i] = sig.Params().At(i)
	}
	// Named results always feed the return sentinel (naked returns).
	if info.Decl.Type.Results != nil {
		for _, field := range info.Decl.Type.Results.List {
			for _, name := range field.Names {
				if obj := u.Info.Defs[name]; obj != nil {
					ff.addEdge(obj, ff.ret())
				}
			}
		}
	}

	ast.Inspect(info.Decl.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			ff.assign(u.Info, st.Lhs, st.Rhs)
		case *ast.ValueSpec:
			var lhs []ast.Expr
			for _, name := range st.Names {
				lhs = append(lhs, name)
			}
			ff.assign(u.Info, lhs, st.Values)
		case *ast.RangeStmt:
			src := mentionNodes(u.Info, st.X)
			for _, lhs := range []ast.Expr{st.Key, st.Value} {
				if lhs == nil {
					continue
				}
				if root := rootObj(u.Info, lhs); root != nil {
					for _, s := range src {
						ff.addEdge(s, root)
					}
				}
			}
		case *ast.ReturnStmt:
			for _, res := range st.Results {
				for _, s := range mentionNodes(u.Info, res) {
					ff.addEdge(s, ff.ret())
				}
			}
		case *ast.SendStmt:
			if root := rootObj(u.Info, st.Chan); root != nil {
				for _, s := range mentionNodes(u.Info, st.Value) {
					ff.addEdge(s, root)
				}
			}
		case *ast.CallExpr:
			ff.addCall(u.Info, st)
		}
		return true
	})
	return ff
}

// assign records lhs ← rhs derivation edges, handling both pairwise
// assignment and tuple destructuring (v, err := f()).
func (ff *funcFlow) assign(info *types.Info, lhs, rhs []ast.Expr) {
	if len(rhs) == 0 {
		return
	}
	if len(lhs) == len(rhs) {
		for i := range lhs {
			root := rootObj(info, lhs[i])
			if root == nil {
				continue
			}
			for _, s := range mentionNodes(info, rhs[i]) {
				ff.addEdge(s, root)
			}
		}
		return
	}
	src := mentionNodes(info, rhs[0])
	for _, l := range lhs {
		if root := rootObj(info, l); root != nil {
			for _, s := range src {
				ff.addEdge(s, root)
			}
		}
	}
}

// addCall records one call site: per-argument value nodes, the
// receiver's nodes, and the conservative mutation edges (any value
// passed into a call may end up inside any other argument object the
// callee can write through — e.g. fmt.Fprintf(&sb, tainted)).
func (ff *funcFlow) addCall(info *types.Info, call *ast.CallExpr) {
	cs := &callSite{call: call, callee: CalleeOf(info, call)}
	if cs.callee != nil {
		cs.iface = isInterfaceMethod(cs.callee)
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if _, isPkg := objOf(info, selRootIdent(sel)).(*types.PkgName); !isPkg || selRootIdent(sel) == nil {
			cs.recv = mentionNodes(info, sel.X)
		}
	}
	var mutable []types.Object
	var all []node
	for _, arg := range call.Args {
		an := mentionNodes(info, arg)
		cs.args = append(cs.args, an)
		all = append(all, an...)
		// Writability is a property of what the callee receives, not of
		// the base variable: &s hands over a *string even though s
		// itself is a plain string.
		argType := info.Types[arg].Type
		if root := rootObj(info, arg); root != nil && argType != nil && mutableKind(argType) {
			mutable = append(mutable, root)
		}
	}
	all = append(all, cs.recv...)
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if root := rootObj(info, sel.X); root != nil && mutableKind(root.Type()) {
			mutable = append(mutable, root)
		}
	}
	for _, m := range mutable {
		for _, s := range all {
			ff.addEdge(s, m)
		}
	}
	ff.calls = append(ff.calls, cs)
}

// selRootIdent returns the leftmost identifier of a selector chain.
func selRootIdent(sel *ast.SelectorExpr) *ast.Ident {
	e := ast.Expr(sel)
	for {
		switch t := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			e = t.X
		case *ast.Ident:
			return t
		default:
			return nil
		}
	}
}

// mutableKind reports whether a value of type t can be written through
// by a callee (pointers, slices, maps, channels, interfaces, and
// strings.Builder-style structs are reached via pointer args anyway).
func mutableKind(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Interface:
		return true
	}
	return false
}

// flows builds (and caches) the intra-function graphs for every
// declared function.
func (g *Graph) flows() map[*types.Func]*funcFlow {
	if g.flowCache != nil {
		return g.flowCache
	}
	g.flowCache = map[*types.Func]*funcFlow{}
	for fn, info := range g.Funcs {
		g.flowCache[fn] = buildFlow(fn, info)
	}
	return g.flowCache
}

// Summaries computes the per-function dataflow summaries by
// fixed-point iteration over the call graph: a parameter reaches a
// return either directly or by being passed to a callee parameter
// that (per the callee's summary) reaches the callee's return, with
// that result value flowing onward. Convergence is guaranteed because
// the summary bits only ever flip from false to true.
func (g *Graph) Summaries() map[*types.Func]*Summary {
	if g.summaries != nil {
		return g.summaries
	}
	flows := g.flows()
	sums := map[*types.Func]*Summary{}
	for fn := range flows {
		sums[fn] = &Summary{Fn: fn, ParamToReturn: map[int]bool{}, TaintsParam: map[int]bool{}}
	}
	g.summaries = sums
	for changed := true; changed; {
		changed = false
		for fn, ff := range flows {
			s := sums[fn]
			for idx, obj := range ff.params {
				if s.ParamToReturn[idx] && s.TaintsParam[idx] {
					continue
				}
				reach := g.reachable(ff, map[node]bool{obj: true})
				if !s.ParamToReturn[idx] && reach[ff.ret()] {
					s.ParamToReturn[idx] = true
					changed = true
				}
				if !s.TaintsParam[idx] {
					// The parameter object itself gaining new inbound
					// flow means the function writes into it.
					if mutableKind(obj.Type()) && derivedInto(ff, obj, reach) {
						s.TaintsParam[idx] = true
						changed = true
					}
				}
			}
		}
	}
	return sums
}

// derivedInto reports whether anything outside the seed set flows into
// obj inside the function (i.e. the function writes through obj).
func derivedInto(ff *funcFlow, obj types.Object, fromSelf map[node]bool) bool {
	for src, dsts := range ff.edges {
		if fromSelf[src] {
			continue
		}
		for _, d := range dsts {
			if d == node(obj) {
				return true
			}
		}
	}
	return false
}

// reachable runs forward reachability from the seed nodes across the
// intra-function edges, splicing in call-result derivation through
// the current summaries: a call's result node is reachable when a
// reachable value feeds an argument whose parameter (per the callee
// summary) flows to the callee's return. Unknown callees — builtins,
// function values, interface methods with no known implementation —
// are treated as returning data derived from every argument.
func (g *Graph) reachable(ff *funcFlow, seeds map[node]bool) map[node]bool {
	reach := map[node]bool{}
	for s := range seeds {
		reach[s] = true
	}
	for changed := true; changed; {
		changed = false
		visit := func(n node) {
			if !reach[n] {
				reach[n] = true
				changed = true
			}
		}
		for src, dsts := range ff.edges {
			if !reach[src] {
				continue
			}
			for _, d := range dsts {
				visit(d)
			}
		}
		for _, cs := range ff.calls {
			if reach[cs.call] {
				continue
			}
			if g.callResultDerived(cs, reach) {
				visit(cs.call)
			}
		}
	}
	return reach
}

// callResultDerived reports whether the call's results derive from any
// currently-reachable value, per the callee summaries.
func (g *Graph) callResultDerived(cs *callSite, reach map[node]bool) bool {
	argReached := func(i int) bool {
		var nodes []node
		if i == -1 {
			nodes = cs.recv
		} else if i < len(cs.args) {
			nodes = cs.args[i]
		}
		for _, n := range nodes {
			if reach[n] {
				return true
			}
		}
		return false
	}
	anyArg := func() bool {
		for i := -1; i < len(cs.args); i++ {
			if argReached(i) {
				return true
			}
		}
		return false
	}
	targets := g.callTargets(cs)
	if len(targets) == 0 {
		return anyArg()
	}
	for _, t := range targets {
		s := g.summaries[t]
		if s == nil {
			// Known function without a body in the units (stdlib,
			// export-data import): conservative.
			if anyArg() {
				return true
			}
			continue
		}
		for i := range s.ParamToReturn {
			if s.ParamToReturn[i] && argReached(i) {
				return true
			}
		}
	}
	return false
}

// callTargets resolves a call site to its possible declared targets:
// the static callee, or the implementations of an interface method.
// Returns nil when the target is wholly unknown.
func (g *Graph) callTargets(cs *callSite) []*types.Func {
	if cs.callee == nil {
		return nil
	}
	if !cs.iface {
		return []*types.Func{cs.callee}
	}
	impls := g.Impls[cs.callee]
	if len(impls) == 0 {
		return nil
	}
	out := make([]*types.Func, 0, len(impls)+1)
	out = append(out, cs.callee)
	out = append(out, impls...)
	return out
}
