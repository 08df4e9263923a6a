package sqldb

import (
	"math"

	"github.com/reliable-cda/cda/internal/storage"
)

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

// joinKey is a cell as a hash-join key. Two non-NULL cells of kinds `=`
// can compare get equal keys exactly when Value.Compare calls them
// equal — numbers meet as float64s, so INT 2 joins FLOAT 2.0 and -0
// joins 0 — except that a NaN joins only another NaN.
type joinKey struct {
	kind storage.Kind // KindFloat for INT and FLOAT alike
	bits uint64       // a number's float64 bits; 0 or 1 for a BOOL
	str  string
}

// canonicalNaN stands for every NaN bit pattern in a joinKey.
var canonicalNaN = math.Float64bits(math.NaN())

// joinKeyOf returns v's join key; NULL has none, because NULL never
// equi-joins.
func joinKeyOf(v storage.Value) (joinKey, bool) {
	switch v.Kind {
	case storage.KindNull:
		return joinKey{}, false
	case storage.KindInt, storage.KindFloat:
		f, _ := v.AsFloat()
		k := joinKey{kind: storage.KindFloat, bits: math.Float64bits(f)}
		switch {
		case f == 0:
			k.bits = 0 // -0 = 0
		case f != f:
			k.bits = canonicalNaN
		}
		return k, true
	case storage.KindBool:
		k := joinKey{kind: storage.KindBool}
		if v.B {
			k.bits = 1
		}
		return k, true
	default:
		return joinKey{kind: v.Kind, str: v.S}, true
	}
}
