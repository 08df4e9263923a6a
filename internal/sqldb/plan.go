package sqldb

import "github.com/reliable-cda/cda/internal/storage"

// This file implements the engine's logical optimizations, the
// query-level half of the paper's "holistic optimizer":
//
//   - predicate pushdown: WHERE conjuncts that reference a single
//     base relation are applied at scan time, before any join;
//   - hash equi-joins: a conjunct of the ON condition of the form
//     left.col = right.col turns the O(n·m) nested loop into a build
//     + probe pass; residual ON conjuncts are evaluated on matches.
//
// Engine.DisableOptimizations turns both off, keeping the naive
// plan for correctness cross-checks and the ablation bench.

// conjuncts flattens a tree of ANDs into its conjunct list.
func conjuncts(e Expr) []Expr {
	if b, ok := e.(*BinaryExpr); ok && b.Op == "AND" {
		return append(conjuncts(b.Left), conjuncts(b.Right)...)
	}
	return []Expr{e}
}

// conjoin rebuilds an expression from conjuncts (nil for none).
func conjoin(parts []Expr) Expr {
	if len(parts) == 0 {
		return nil
	}
	out := parts[0]
	for _, p := range parts[1:] {
		out = &BinaryExpr{Op: "AND", Left: out, Right: p}
	}
	return out
}

// resolvableIn reports whether every column reference of the
// expression resolves unambiguously in the relation.
func resolvableIn(e Expr, rel columnResolver) bool {
	var refs []*ColumnRef
	columnRefs(e, &refs)
	if len(refs) == 0 {
		return false // constant predicates stay at the top
	}
	for _, r := range refs {
		if _, err := rel.resolve(r); err != nil {
			return false
		}
	}
	return true
}

// pushDown splits predicates into those evaluable against rel and the
// remainder.
func pushDown(preds []Expr, rel columnResolver) (pushed, rest []Expr) {
	for _, p := range preds {
		if containsAggregate(p) {
			rest = append(rest, p)
			continue
		}
		if resolvableIn(p, rel) {
			pushed = append(pushed, p)
		} else {
			rest = append(rest, p)
		}
	}
	return pushed, rest
}

// equiJoinKey finds one `a = b` conjunct with a resolving in left and
// b in right (either order), returning the column indexes and the
// residual conjuncts.
func equiJoinKey(on Expr, left, right columnResolver) (li, ri int, residual []Expr, ok bool) {
	parts := conjuncts(on)
	for idx, p := range parts {
		b, isBin := p.(*BinaryExpr)
		if !isBin || b.Op != "=" {
			continue
		}
		lref, lok := b.Left.(*ColumnRef)
		rref, rok := b.Right.(*ColumnRef)
		if !lok || !rok {
			continue
		}
		if l, err := left.resolve(lref); err == nil {
			if r, err := right.resolve(rref); err == nil {
				rest := append(append([]Expr{}, parts[:idx]...), parts[idx+1:]...)
				return l, r, rest, true
			}
		}
		if l, err := left.resolve(rref); err == nil {
			if r, err := right.resolve(lref); err == nil {
				rest := append(append([]Expr{}, parts[:idx]...), parts[idx+1:]...)
				return l, r, rest, true
			}
		}
	}
	return 0, 0, nil, false
}

// valueKey renders a value as a hash key with kind tag; numeric kinds
// share a representation so INT 2 joins FLOAT 2.0.
func valueKey(v storage.Value) (string, bool) {
	if v.IsNull() {
		return "", false // NULL never equi-joins
	}
	if f, ok := v.AsFloat(); ok && v.Kind != storage.KindString && v.Kind != storage.KindBool {
		// Both sides go through the same float renderer, so INT 2 and
		// FLOAT 2.0 produce the identical key "n:2".
		return "n:" + storage.Float(f).String(), true
	}
	return v.Kind.String() + ":" + v.String(), true
}
