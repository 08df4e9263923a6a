package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// CtxPropagation enforces the cancellation contract the serving and
// resilience layers depend on: a function that receives a
// context.Context must forward it (or a context derived from it) to
// every callee that accepts one, and fresh root contexts —
// context.Background() / context.TODO() — may only be minted in main
// functions, tests, or sites carrying an audited cdalint:ignore. A
// dropped context severs deadline and cancellation propagation: the
// timeout ladder (ⓓ graceful degradation) and the per-turn budget in
// core.Respond silently stop applying to everything downstream of the
// break.
var CtxPropagation = &Analyzer{
	Name:     ruleCtxPropagation,
	Doc:      "context.Context must be forwarded, not re-rooted: Background()/TODO() outside main/tests, or a ctx parameter not passed to a ctx-accepting callee",
	Severity: SeverityError,
	Run:      runCtxPropagation,
}

func runCtxPropagation(p *Package) []Finding {
	var out []Finding
	for _, fd := range funcDecls(p) {
		file := p.Fset.Position(fd.Pos()).Filename
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		out = append(out, auditCtxFunc(p, fd)...)
	}
	return out
}

// auditCtxFunc checks one declaration (closures included — they
// execute under the declaring function's context discipline).
func auditCtxFunc(p *Package, fd *ast.FuncDecl) []Finding {
	var out []Finding
	isMainRoot := p.Types.Name() == "main" && fd.Recv == nil && fd.Name.Name == "main"
	derived := derivedCtxObjs(p, fd)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if full := calleeFullName(p, call); full == "context.Background" || full == "context.TODO" {
			if !isMainRoot {
				msg := fmt.Sprintf("%s() mints a fresh root context outside main/tests, severing cancellation and deadline propagation", full)
				if len(derived) > 0 {
					msg += "; forward the function's ctx instead"
				} else {
					msg += "; accept a ctx parameter and forward it"
				}
				out = append(out, Finding{Rule: ruleCtxPropagation, Severity: SeverityError,
					Pos: p.Fset.Position(call.Pos()), Message: msg})
			}
			return true
		}
		if len(derived) == 0 {
			return true
		}
		sig := callSignature(p, call)
		if sig == nil {
			return true
		}
		for i := 0; i < sig.Params().Len() && i < len(call.Args); i++ {
			if !isContextType(sig.Params().At(i).Type()) {
				continue
			}
			arg := call.Args[i]
			if ctxArgForwarded(p, arg, derived) {
				continue
			}
			// A Background()/TODO() argument is already reported by the
			// root-context check above; everything else non-derived is a
			// broken chain in its own right.
			if inner, ok := ast.Unparen(arg).(*ast.CallExpr); ok {
				if full := calleeFullName(p, inner); full == "context.Background" || full == "context.TODO" {
					continue
				}
			}
			out = append(out, Finding{Rule: ruleCtxPropagation, Severity: SeverityError,
				Pos: p.Fset.Position(arg.Pos()),
				Message: fmt.Sprintf("call passes %q as its context instead of forwarding the function's ctx (or a context derived from it)",
					exprString(p.Fset, arg))})
		}
		return true
	})
	return out
}

// derivedCtxObjs returns the function's context parameters plus every
// context-typed local derived from them (ctx2, cancel :=
// context.WithTimeout(ctx, d); sub := context.WithValue(ctx2, k, v)).
func derivedCtxObjs(p *Package, fd *ast.FuncDecl) map[types.Object]bool {
	derived := map[types.Object]bool{}
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			for _, name := range field.Names {
				if obj := p.Info.Defs[name]; obj != nil && isContextType(obj.Type()) {
					derived[obj] = true
				}
			}
		}
	}
	// Closures may bind a ctx parameter of their own; their params are
	// Defs inside the body and picked up here too.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		fl, ok := n.(*ast.FuncLit)
		if !ok || fl.Type.Params == nil {
			return true
		}
		for _, field := range fl.Type.Params.List {
			for _, name := range field.Names {
				if obj := p.Info.Defs[name]; obj != nil && isContextType(obj.Type()) {
					derived[obj] = true
				}
			}
		}
		return true
	})
	for changed := true; changed; {
		changed = false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			fromDerived := false
			for _, rhs := range as.Rhs {
				if exprMentionsAny(p, rhs, derived) {
					fromDerived = true
					break
				}
			}
			if !fromDerived {
				return true
			}
			for _, lhs := range as.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				obj := p.Info.ObjectOf(id)
				if obj == nil || derived[obj] || !isContextType(obj.Type()) {
					continue
				}
				derived[obj] = true
				changed = true
			}
			return true
		})
	}
	return derived
}

// ctxArgForwarded reports whether the argument expression reads any
// derived context object.
func ctxArgForwarded(p *Package, arg ast.Expr, derived map[types.Object]bool) bool {
	return exprMentionsAny(p, arg, derived)
}

// exprMentionsAny reports whether the expression uses any object in
// the set.
func exprMentionsAny(p *Package, e ast.Expr, objs map[types.Object]bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := p.Info.Uses[id]; obj != nil && objs[obj] {
				found = true
			}
		}
		return !found
	})
	return found
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	path, name := namedPathName(t)
	return path == "context" && name == "Context"
}

// callSignature resolves the signature a call invokes, or nil for
// builtins and type conversions.
func callSignature(p *Package, call *ast.CallExpr) *types.Signature {
	tv, ok := p.Info.Types[call.Fun]
	if !ok || tv.IsType() {
		return nil
	}
	sig, _ := tv.Type.Underlying().(*types.Signature)
	return sig
}
