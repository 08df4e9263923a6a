package analysis

import (
	"go/ast"
	"go/types"
)

// funcBody is one analyzable body: a declared function/method or a
// function literal. Literals are separate units because control never
// flows from the enclosing function into them — a closure may run on
// another goroutine or after the enclosing frame returned.
type funcBody struct {
	name string
	body *ast.BlockStmt
}

// funcBodies enumerates every function, method, and function-literal
// body in the package, each exactly once.
func funcBodies(p *Package) []funcBody {
	var out []funcBody
	for _, fd := range funcDecls(p) {
		out = append(out, funcBody{name: fd.Name.Name, body: fd.Body})
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if fl, ok := n.(*ast.FuncLit); ok {
				out = append(out, funcBody{name: "function literal in " + fd.Name.Name, body: fl.Body})
			}
			return true
		})
	}
	return out
}

// nilCheckedObject decomposes a branch condition of the shape
// `x != nil` / `x == nil` into the identifier's object and whether the
// edge (cond evaluated to truth) proves x is non-nil. ok is false for
// any other condition shape.
func nilCheckedObject(p *Package, cond ast.Expr, truth bool) (obj types.Object, nonNil bool, ok bool) {
	be, isBin := ast.Unparen(cond).(*ast.BinaryExpr)
	if !isBin {
		return nil, false, false
	}
	var eq bool
	switch be.Op.String() {
	case "==":
		eq = true
	case "!=":
		eq = false
	default:
		return nil, false, false
	}
	x, y := ast.Unparen(be.X), ast.Unparen(be.Y)
	if isNilIdent(p, x) {
		x, y = y, x
	}
	if !isNilIdent(p, y) {
		return nil, false, false
	}
	id, isIdent := x.(*ast.Ident)
	if !isIdent {
		return nil, false, false
	}
	obj = p.Info.Uses[id]
	if obj == nil {
		return nil, false, false
	}
	// x == nil true  → nil;  x == nil false → non-nil
	// x != nil true  → non-nil; x != nil false → nil
	nonNil = eq != truth
	return obj, nonNil, true
}

func isNilIdent(p *Package, e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := p.Info.Uses[id].(*types.Nil)
	return isNil
}
