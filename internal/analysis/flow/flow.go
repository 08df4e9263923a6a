// Package flow implements the interprocedural layer under cdalint: a
// module-wide call graph (static dispatch plus interface-method
// resolution over the loaded packages) and a function-summary dataflow
// engine that computes, by fixed-point iteration over the call graph,
// which parameters reach which calls and returns, and how taint
// introduced at designated source calls propagates through the module.
//
// Like the rest of the analysis suite it is built purely on go/ast and
// go/types — no golang.org/x/tools. That buys portability at the price
// of documented soundness limits (see DESIGN.md "Dataflow engine"):
//
//   - reflection and code reached only through reflect is invisible;
//   - function values stored in struct fields or maps are not resolved
//     to their targets (direct function-valued variables and method
//     values ARE tracked as reference edges);
//   - goroutine interleavings are not modeled — a call is a call
//     whether synchronous or `go`-spawned;
//   - flow inside a function is object-granular and flow-insensitive:
//     writing one field of a struct taints the whole object.
//
// The engine deliberately over-approximates: for a rule that forbids a
// flow (provenance-taint) this errs toward reporting, and
// the cdalint:ignore directive is the documented escape hatch.
package flow

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Unit is one type-checked package handed to the engine. It mirrors
// the loader's package shape without importing it, so the package
// stays dependency-free and testable on synthetic inputs.
type Unit struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// FuncInfo is one function or method declaration with a body.
type FuncInfo struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Unit *Unit
}

// EdgeKind classifies how a call-graph edge was established.
type EdgeKind int

const (
	// EdgeStatic is a direct call of a declared function or method.
	EdgeStatic EdgeKind = iota
	// EdgeInterface is a call through an interface method; the callee
	// is the interface method, with concrete targets in Graph.Impls.
	EdgeInterface
	// EdgeRef marks a function or method referenced as a value
	// (method value, function assigned to a variable); the engine
	// assumes the enclosing function may invoke it.
	EdgeRef
)

// Edge is one resolved caller→callee relationship.
type Edge struct {
	Caller *types.Func
	Callee *types.Func
	Site   ast.Node
	Kind   EdgeKind
}

// Graph is the module call graph plus the per-function summaries.
type Graph struct {
	Units []*Unit
	// Funcs maps every declared function with a body to its info.
	Funcs map[*types.Func]*FuncInfo
	// Edges lists outgoing edges per caller, in source order.
	Edges map[*types.Func][]Edge
	// Callers lists incoming edges per callee (including interface
	// methods and EdgeRef targets).
	Callers map[*types.Func][]Edge
	// Impls resolves an interface method to the concrete methods of
	// implementing types found among the units.
	Impls map[*types.Func][]*types.Func

	summaries map[*types.Func]*Summary
	flowCache map[*types.Func]*funcFlow
}

// objOf resolves an identifier to its object through Uses then Defs.
func objOf(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Uses[id]; o != nil {
		return o
	}
	return info.Defs[id]
}

// funcObj resolves an identifier to a *types.Func, or nil.
func funcObj(info *types.Info, id *ast.Ident) *types.Func {
	fn, _ := objOf(info, id).(*types.Func)
	return fn
}

// isInterfaceMethod reports whether fn is declared on an interface.
func isInterfaceMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return types.IsInterface(sig.Recv().Type())
}

// CalleeOf resolves the called function of a call expression, or nil
// for builtins, conversions, and calls of function-typed values.
func CalleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return funcObj(info, fun)
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}
