package analysis

import (
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"strings"

	"github.com/reliable-cda/cda/internal/analysis/flow"
)

// errorType is the predeclared error interface.
var errorType = types.Universe.Lookup("error").Type()

// isErrorType reports whether t is exactly the error interface.
func isErrorType(t types.Type) bool {
	return t != nil && types.Identical(t, errorType)
}

// funcDecls yields every function and method declaration in the
// package, including the file it lives in.
func funcDecls(p *Package) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, f := range p.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				out = append(out, fd)
			}
		}
	}
	return out
}

// calleeFunc resolves a call expression to the *types.Func it
// invokes, or nil for builtins, conversions, and function values.
func calleeFunc(p *Package, call *ast.CallExpr) *types.Func {
	return flow.CalleeOf(p.Info, call)
}

// calleeFullName returns the types.Func full name of the callee
// (e.g. "time.Now" or "(*sync.Mutex).Lock"), or "".
func calleeFullName(p *Package, call *ast.CallExpr) string {
	if fn := calleeFunc(p, call); fn != nil {
		return fn.FullName()
	}
	return ""
}

// exprString renders an expression compactly for messages and for
// matching lock receivers ("s.mu", "entry.mu").
func exprString(fset *token.FileSet, e ast.Expr) string {
	var sb strings.Builder
	if err := printer.Fprint(&sb, fset, e); err != nil {
		return "<expr>"
	}
	return sb.String()
}

// namedPathName returns (package path, type name) of a named or
// pointer-to-named type, or ("", "").
func namedPathName(t types.Type) (string, string) {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return "", obj.Name()
	}
	return obj.Pkg().Path(), obj.Name()
}

// returnsIdent reports whether fn contains a return statement whose
// results mention the object obj, or whether obj is one of the named
// result parameters.
func returnsIdent(p *Package, fn *ast.FuncDecl, obj types.Object) bool {
	if fn.Type.Results != nil {
		for _, field := range fn.Type.Results.List {
			for _, name := range field.Names {
				if p.Info.Defs[name] == obj {
					return true
				}
			}
		}
	}
	found := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			ast.Inspect(res, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && p.Info.Uses[id] == obj {
					found = true
				}
				return !found
			})
		}
		return !found
	})
	return found
}

// mentionsObject reports whether the expression tree uses obj.
func mentionsObject(p *Package, e ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && p.Info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}
