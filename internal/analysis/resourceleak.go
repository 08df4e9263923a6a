package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"github.com/reliable-cda/cda/internal/analysis/typestate"
)

// ResourceLeak enforces acquire/release pairing over the control-flow
// graph for the two resource shapes the serving layer leaks silently
// when a branch forgets them:
//
//   - file handles: `f, err := os.Open/Create/OpenFile(...)` must
//     reach f.Close() on every path (after the err != nil branch,
//     which the analysis understands — a failed acquire holds
//     nothing);
//   - release callbacks: `release, err := x.Admit(...)` and any other
//     call returning (func(), error) — admission inflight slots and
//     token-bucket reservations — must call or defer release() on
//     every path.
//
// A value that escapes the function (returned, stored in a struct or
// map, passed to another call) transfers ownership and ends tracking;
// mentions inside nested function literals count as escapes for the
// same reason. Releasing under defer covers every path including
// panics.
var ResourceLeak = &Analyzer{
	Name:     ruleResourceLeak,
	Doc:      "an acquired resource (file handle, admission release func) with a path that never releases it",
	Severity: SeverityError,
	Run:      runResourceLeak,
}

const (
	// rlAcquired: the resource is held and unreleased on some path.
	rlAcquired typestate.Facts = 1 << iota
	// rlErrFresh: the error paired with the acquire has not been
	// reassigned, so an err != nil branch still refers to it.
	rlErrFresh
)

// rlKey is one acquisition site.
type rlKey struct {
	obj  types.Object
	pos  token.Pos
	what string
}

// rlTracker accumulates the static maps one body's analysis needs:
// which objects are resources and which error objects pair with which
// acquisitions. Both only grow, so mutating them from transfer
// functions keeps the fixed point monotone.
type rlTracker struct {
	p       *Package
	resKeys map[types.Object][]rlKey
	errKeys map[types.Object][]rlKey
}

func runResourceLeak(p *Package) []Finding {
	var out []Finding
	for _, fb := range funcBodies(p) {
		out = append(out, resourceLeakBody(p, fb)...)
	}
	return out
}

func resourceLeakBody(p *Package, fb funcBody) []Finding {
	tr := &rlTracker{p: p, resKeys: map[types.Object][]rlKey{}, errKeys: map[types.Object][]rlKey{}}
	cfg := typestate.BuildTyped(p.Info, fb.body)
	res := typestate.Forward(cfg, typestate.Analysis{
		Transfer: tr.transfer,
		Refine: func(cond ast.Expr, truth bool, s typestate.State) {
			obj, nonNil, ok := nilCheckedObject(p, cond, truth)
			if !ok || !nonNil {
				return
			}
			// err is known non-nil on this edge: acquisitions paired
			// with a still-fresh err failed and hold nothing.
			for _, k := range tr.errKeys[obj] {
				if s[k]&rlErrFresh != 0 {
					s.Map(k, func(f typestate.Facts) typestate.Facts { return f &^ rlAcquired })
				}
			}
		},
	})

	var out []Finding
	reported := map[rlKey]bool{}
	flag := func(s typestate.State, what string) {
		for k, facts := range s {
			key, ok := k.(rlKey)
			if !ok || facts&rlAcquired == 0 || reported[key] {
				continue
			}
			reported[key] = true
			out = append(out, Finding{
				Rule: ruleResourceLeak, Severity: SeverityError,
				Pos: p.Fset.Position(key.pos),
				Message: fmt.Sprintf("%s acquired here is not released on every %s; release it on each branch or use defer",
					key.what, what),
			})
		}
	}
	if s := res.AtExit(); s != nil {
		flag(s, "return path")
	}
	if s := res.AtPanic(); s != nil {
		flag(s, "panic path")
	}
	// State maps iterate in random order; findings must not.
	sort.Slice(out, func(i, j int) bool { return out[i].Pos.Offset < out[j].Pos.Offset })
	return out
}

func (tr *rlTracker) transfer(n ast.Node, s typestate.State) {
	benign := map[*ast.Ident]bool{}
	if as, ok := n.(*ast.AssignStmt); ok {
		tr.assign(as, s, benign)
	}
	tr.scan(n, s, benign)
}

// assign handles acquisition (`res, err := call(...)`) and the
// bookkeeping reassignments break: overwriting a paired err unlinks
// later nil-checks, overwriting a tracked resource ends tracking.
func (tr *rlTracker) assign(as *ast.AssignStmt, s typestate.State, benign map[*ast.Ident]bool) {
	p := tr.p
	// Any assignment to a paired error object makes err != nil checks
	// about the NEW call, not the acquire: drop freshness. Assigning
	// over a tracked resource loses the old handle; tracking ends
	// conservatively rather than guessing.
	for _, lhs := range as.Lhs {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			continue
		}
		obj := p.Info.ObjectOf(id)
		if obj == nil {
			continue
		}
		if keys := tr.errKeys[obj]; len(keys) > 0 {
			for _, k := range keys {
				s.Map(k, func(f typestate.Facts) typestate.Facts { return f &^ rlErrFresh })
			}
			benign[id] = true
		}
		if keys := tr.resKeys[obj]; len(keys) > 0 {
			for _, k := range keys {
				s.Map(k, func(f typestate.Facts) typestate.Facts { return f &^ rlAcquired })
			}
			benign[id] = true
		}
	}

	resObj, errObj, what, pos, ok := acquireCall(p, as)
	if !ok {
		return
	}
	k := rlKey{obj: resObj, pos: pos, what: what}
	facts := rlAcquired
	if errObj != nil {
		facts |= rlErrFresh
		tr.errKeys[errObj] = append(tr.errKeys[errObj], k)
	}
	s[k] = facts
	tr.resKeys[resObj] = append(tr.resKeys[resObj], k)
	// The acquire's own LHS mentions are definitions, not uses.
	for _, lhs := range as.Lhs {
		if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
			benign[id] = true
		}
	}
}

// acquireCall matches `res, err := call(...)` where the call returns
// (*os.File, error) or (func(), error).
func acquireCall(p *Package, as *ast.AssignStmt) (resObj, errObj types.Object, what string, pos token.Pos, ok bool) {
	if len(as.Lhs) != 2 || len(as.Rhs) != 1 {
		return nil, nil, "", token.NoPos, false
	}
	call, isCall := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
	if !isCall {
		return nil, nil, "", token.NoPos, false
	}
	tv, found := p.Info.Types[call]
	if !found {
		return nil, nil, "", token.NoPos, false
	}
	tuple, isTuple := tv.Type.(*types.Tuple)
	if !isTuple || tuple.Len() != 2 || !isErrorType(tuple.At(1).Type()) {
		return nil, nil, "", token.NoPos, false
	}
	rt := tuple.At(0).Type()
	switch {
	case isOSFile(rt):
		what = "file handle"
	case isBareFunc(rt):
		what = "release func"
	default:
		return nil, nil, "", token.NoPos, false
	}
	if name := calleeFullName(p, call); name != "" {
		what += " from " + name
	}
	resID, isIdent := ast.Unparen(as.Lhs[0]).(*ast.Ident)
	if !isIdent || isBlank(resID) {
		return nil, nil, "", token.NoPos, false
	}
	resObj = p.Info.ObjectOf(resID)
	if resObj == nil {
		return nil, nil, "", token.NoPos, false
	}
	if errID, isIdent := ast.Unparen(as.Lhs[1]).(*ast.Ident); isIdent && !isBlank(errID) {
		errObj = p.Info.ObjectOf(errID)
	}
	return resObj, errObj, what, call.Pos(), true
}

func isOSFile(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		path, name := namedPathName(ptr.Elem())
		return path == "os" && name == "File"
	}
	return false
}

// isBareFunc reports whether t is a niladic no-result func type —
// the shape of release/cleanup callbacks like admission's.
func isBareFunc(t types.Type) bool {
	sig, ok := t.Underlying().(*types.Signature)
	return ok && sig.Params().Len() == 0 && sig.Results().Len() == 0 && sig.Recv() == nil
}

// scan classifies every mention of a tracked object in the node:
// method calls on the resource (f.Close, f.Write) keep tracking and
// Close releases; calling a tracked func value releases; any other
// mention — argument, return value, composite literal, alias, a use
// inside a nested closure — transfers ownership out of this CFG and
// ends tracking.
func (tr *rlTracker) scan(n ast.Node, s typestate.State, benign map[*ast.Ident]bool) {
	p := tr.p
	clear := func(obj types.Object) {
		for _, k := range tr.resKeys[obj] {
			s.Map(k, func(f typestate.Facts) typestate.Facts { return f &^ rlAcquired })
		}
	}
	typestate.InspectNoFuncLit(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.SelectorExpr:
			id, isIdent := ast.Unparen(fun.X).(*ast.Ident)
			if !isIdent {
				return true
			}
			obj := p.Info.Uses[id]
			if obj == nil || len(tr.resKeys[obj]) == 0 {
				return true
			}
			benign[id] = true
			if fun.Sel.Name == "Close" {
				clear(obj)
			}
		case *ast.Ident:
			obj := p.Info.Uses[fun]
			if obj == nil || len(tr.resKeys[obj]) == 0 {
				return true
			}
			benign[fun] = true
			clear(obj)
		}
		return true
	})
	// Full inspection on purpose: a resource captured by a nested
	// closure outlives this CFG's paths, which is an escape.
	ast.Inspect(n, func(m ast.Node) bool {
		id, ok := m.(*ast.Ident)
		if !ok || benign[id] {
			return true
		}
		obj := p.Info.Uses[id]
		if obj != nil && len(tr.resKeys[obj]) > 0 {
			clear(obj)
		}
		return true
	})
}
