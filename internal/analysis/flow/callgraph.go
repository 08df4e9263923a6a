package flow

import (
	"go/ast"
	"go/types"
	"sort"
)

// BuildGraph constructs the module call graph over the given units:
// every function declaration becomes a node; call expressions become
// static or interface edges; function and method values referenced
// outside call position become EdgeRef edges; and interface methods
// are resolved to the concrete methods of implementing named types
// found among the units.
func BuildGraph(units []*Unit) *Graph {
	g := &Graph{
		Units:   units,
		Funcs:   map[*types.Func]*FuncInfo{},
		Edges:   map[*types.Func][]Edge{},
		Callers: map[*types.Func][]Edge{},
		Impls:   map[*types.Func][]*types.Func{},
	}
	for _, u := range units {
		for _, f := range u.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := u.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				g.Funcs[fn] = &FuncInfo{Fn: fn, Decl: fd, Unit: u}
			}
		}
	}
	g.resolveInterfaces()
	for fn, info := range g.Funcs {
		g.addEdges(fn, info)
	}
	for _, edges := range g.Edges {
		for _, e := range edges {
			g.Callers[e.Callee] = append(g.Callers[e.Callee], e)
			if e.Kind == EdgeInterface {
				// An interface call also reaches every known
				// implementation; record the indirection for reverse
				// propagation.
				for _, impl := range g.Impls[e.Callee] {
					g.Callers[impl] = append(g.Callers[impl], Edge{
						Caller: e.Caller, Callee: impl, Site: e.Site, Kind: EdgeInterface,
					})
				}
			}
		}
	}
	return g
}

// resolveInterfaces maps every interface method that appears in the
// units to the methods of named types (and their pointer receivers)
// that implement the interface.
func (g *Graph) resolveInterfaces() {
	var named []*types.Named
	var ifaces []*types.Named
	seen := map[*types.TypeName]bool{}
	for _, u := range g.Units {
		scope := u.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || seen[tn] {
				continue
			}
			seen[tn] = true
			n, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if types.IsInterface(n) {
				ifaces = append(ifaces, n)
			} else {
				named = append(named, n)
			}
		}
	}
	// Deterministic resolution order keeps Impls slices stable.
	sort.Slice(named, func(i, j int) bool { return typeKey(named[i]) < typeKey(named[j]) })
	for _, in := range ifaces {
		iface, ok := in.Underlying().(*types.Interface)
		if !ok || iface.NumMethods() == 0 {
			continue
		}
		for _, n := range named {
			impl := types.Type(n)
			if !types.Implements(impl, iface) {
				if p := types.NewPointer(n); types.Implements(p, iface) {
					impl = p
				} else {
					continue
				}
			}
			for i := 0; i < iface.NumMethods(); i++ {
				im := iface.Method(i)
				obj, _, _ := types.LookupFieldOrMethod(impl, true, im.Pkg(), im.Name())
				if m, ok := obj.(*types.Func); ok {
					g.Impls[im] = appendUniqueFunc(g.Impls[im], m)
				}
			}
		}
	}
}

func typeKey(n *types.Named) string {
	obj := n.Obj()
	if obj.Pkg() != nil {
		return obj.Pkg().Path() + "." + obj.Name()
	}
	return obj.Name()
}

func appendUniqueFunc(s []*types.Func, fn *types.Func) []*types.Func {
	for _, have := range s {
		if have == fn {
			return s
		}
	}
	return append(s, fn)
}

// addEdges walks one function body (function literals inside it are
// folded into the declaring function) and records call and reference
// edges.
func (g *Graph) addEdges(fn *types.Func, info *FuncInfo) {
	u := info.Unit
	// Idents that are the operator of a call — excluded from EdgeRef.
	callFuns := map[*ast.Ident]bool{}
	ast.Inspect(info.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			callFuns[fun] = true
		case *ast.SelectorExpr:
			callFuns[fun.Sel] = true
		}
		callee := CalleeOf(u.Info, call)
		if callee == nil {
			return true
		}
		kind := EdgeStatic
		if isInterfaceMethod(callee) {
			kind = EdgeInterface
		}
		g.Edges[fn] = append(g.Edges[fn], Edge{Caller: fn, Callee: callee, Site: call, Kind: kind})
		return true
	})
	// Method values and function references: a *types.Func used as a
	// value may be invoked later; record a conservative EdgeRef.
	ast.Inspect(info.Decl.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || callFuns[id] {
			return true
		}
		ref, ok := u.Info.Uses[id].(*types.Func)
		if !ok {
			return true
		}
		kind := EdgeRef
		if isInterfaceMethod(ref) {
			kind = EdgeInterface
		}
		g.Edges[fn] = append(g.Edges[fn], Edge{Caller: fn, Callee: ref, Site: id, Kind: kind})
		return true
	})
}

// CalleesOf returns the possible concrete targets of an edge: the
// static callee itself, or the known implementations for an interface
// edge (the interface method is included so rules can reason about
// unresolved targets).
func (g *Graph) CalleesOf(e Edge) []*types.Func {
	if e.Kind != EdgeInterface {
		return []*types.Func{e.Callee}
	}
	out := []*types.Func{e.Callee}
	out = append(out, g.Impls[e.Callee]...)
	return out
}
