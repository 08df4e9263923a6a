package sqldb

import (
	"fmt"
	"sort"
	"strconv"

	"github.com/reliable-cda/cda/internal/storage"
)

// Vectorized aggregation: the same grouping and group-scope evaluation
// as aggregate.go, with column access through compiled kernels instead
// of per-row materialized slices. Group membership is tracked by
// physical row index so provenance and first-row key semantics line up
// with the row engine exactly (which tracks relation row indexes).

// vExecuteAggregate mirrors executeAggregate over a vrel.
func (e *Engine) vExecuteAggregate(stmt *SelectStmt, vr *vrel) (*Result, error) {
	if stmt.SelStar {
		return nil, fmt.Errorf("sql: SELECT * cannot be combined with aggregation")
	}
	for _, it := range stmt.Items {
		if err := validateGroupExpr(it.Expr, stmt.GroupBy); err != nil {
			return nil, err
		}
	}

	vc := &vcompiler{res: vr, cols: vr.cols}
	groups := vBuildGroups(stmt.GroupBy, vr, vc)
	res := &Result{}
	for _, it := range stmt.Items {
		res.Columns = append(res.Columns, it.OutputName())
	}

	type keyed struct {
		row  []storage.Value
		prov []RowRef
		keys []storage.Value
	}
	orderExprs := e.orderExprs(stmt)
	var out []keyed
	for _, g := range groups {
		if stmt.Having != nil {
			hv, err := vEvalGroupExpr(stmt.Having, vr, g, vc)
			if err != nil {
				return nil, err
			}
			if !isTrue(hv) {
				continue
			}
		}
		row := make([]storage.Value, len(stmt.Items))
		for j, it := range stmt.Items {
			v, err := vEvalGroupExpr(it.Expr, vr, g, vc)
			if err != nil {
				return nil, err
			}
			row[j] = v
		}
		k := keyed{row: row}
		if e.CaptureProvenance {
			k.prov = vGroupProvenance(vr, g)
		}
		for _, oe := range orderExprs {
			v, err := vEvalGroupExpr(oe, vr, g, vc)
			if err != nil {
				return nil, err
			}
			k.keys = append(k.keys, v)
		}
		out = append(out, k)
	}
	if len(orderExprs) > 0 {
		sort.SliceStable(out, func(i, j int) bool {
			return compareKeySlices(out[i].keys, out[j].keys, stmt.OrderBy) < 0
		})
	}
	for _, k := range out {
		res.Rows = append(res.Rows, k.row)
		if e.CaptureProvenance {
			res.Prov = append(res.Prov, k.prov)
		}
	}
	return res, nil
}

// vBuildGroups mirrors buildGroups: group keys in first-appearance
// order over the selection, kernel errors treated as NULL keys, and
// the key built exactly as the row engine builds it (appendKeyed per
// value). Group members are physical row
// indexes in selection order. The key is built in one reused buffer,
// so a row that joins an existing group allocates nothing.
func vBuildGroups(groupBy []Expr, vr *vrel, vc *vcompiler) []*group {
	n := vr.length()
	if len(groupBy) == 0 {
		g := &group{}
		for pos := 0; pos < n; pos++ {
			g.rowIdxs = append(g.rowIdxs, vr.phys(pos))
		}
		return []*group{g}
	}
	ks := make([]vkernel, len(groupBy))
	for j, ge := range groupBy {
		ks[j] = vc.kernel(ge)
	}
	index := make(map[string]*group)
	var order []*group
	ctx := vctx{cols: vr.cols}
	var buf []byte
	for pos := 0; pos < n; pos++ {
		p := vr.phys(pos)
		ctx.phys = p
		buf = buf[:0]
		for _, k := range ks {
			v, err := k(&ctx)
			if err != nil {
				// Same policy as buildGroups: evaluation errors become
				// NULL keys (GROUP BY keys are validated column refs in
				// practice).
				v = storage.Null()
			}
			buf = appendKeyed(buf, v)
		}
		g, ok := index[string(buf)]
		if !ok {
			g = &group{}
			index[string(buf)] = g
			order = append(order, g)
		}
		g.rowIdxs = append(g.rowIdxs, p)
	}
	return order
}

// appendValueKey appends v.Kind.String() + ":" + v.String() without
// building either string.
func appendValueKey(buf []byte, v storage.Value) []byte {
	buf = append(append(buf, v.Kind.String()...), ':')
	switch v.Kind {
	case storage.KindInt:
		return strconv.AppendInt(buf, v.I, 10)
	case storage.KindFloat:
		return strconv.AppendFloat(buf, v.F, 'g', -1, 64)
	default: // NULL, TEXT and BOOL render without allocating
		return append(buf, v.String()...)
	}
}

// vGroupProvenance mirrors groupProvenance: dedup in row order over
// the group's members.
func vGroupProvenance(vr *vrel, g *group) []RowRef {
	if vr.base != "" {
		// Base-table provenance is one ref per physical row and group
		// members are distinct physical rows, so the refs are already
		// unique — the dedup map would be pure overhead.
		if len(g.rowIdxs) == 0 {
			return nil
		}
		out := make([]RowRef, len(g.rowIdxs))
		for i, p := range g.rowIdxs {
			out[i] = RowRef{Table: vr.base, Row: p}
		}
		return out
	}
	var out []RowRef
	seen := make(map[RowRef]struct{})
	for _, p := range g.rowIdxs {
		for _, r := range vr.provOf(p) {
			if _, ok := seen[r]; !ok {
				seen[r] = struct{}{}
				out = append(out, r)
			}
		}
	}
	return out
}

// vEvalGroupExpr mirrors evalGroupExpr: aggregates compute over the
// group; other nodes rebuild with group-evaluated literal leaves and
// reuse the row engine's literal evaluator (literal trees contain no
// column references, so passing a nil relation is safe — exactly what
// evalGroupExpr relies on).
func vEvalGroupExpr(e Expr, vr *vrel, g *group, vc *vcompiler) (storage.Value, error) {
	switch x := e.(type) {
	case *FuncExpr:
		return vEvalAggregate(x, vr, g, vc)
	case *Literal:
		return x.Val, nil
	case *ColumnRef:
		if len(g.rowIdxs) == 0 {
			return storage.Null(), nil
		}
		k := vc.kernel(x)
		ctx := vctx{cols: vr.cols, phys: g.rowIdxs[0]}
		return k(&ctx)
	case *BinaryExpr:
		l, err := vEvalGroupExpr(x.Left, vr, g, vc)
		if err != nil {
			return storage.Null(), err
		}
		r, err := vEvalGroupExpr(x.Right, vr, g, vc)
		if err != nil {
			return storage.Null(), err
		}
		lit := &BinaryExpr{Op: x.Op, Left: &Literal{Val: l}, Right: &Literal{Val: r}}
		return evalExpr(lit, nil, nil)
	case *UnaryExpr:
		v, err := vEvalGroupExpr(x.Expr, vr, g, vc)
		if err != nil {
			return storage.Null(), err
		}
		return evalExpr(&UnaryExpr{Op: x.Op, Expr: &Literal{Val: v}}, nil, nil)
	case *InExpr:
		v, err := vEvalGroupExpr(x.Expr, vr, g, vc)
		if err != nil {
			return storage.Null(), err
		}
		list := make([]Expr, len(x.List))
		for i, it := range x.List {
			iv, err := vEvalGroupExpr(it, vr, g, vc)
			if err != nil {
				return storage.Null(), err
			}
			list[i] = &Literal{Val: iv}
		}
		return evalExpr(&InExpr{Expr: &Literal{Val: v}, List: list, Not: x.Not}, nil, nil)
	case *BetweenExpr:
		v, err := vEvalGroupExpr(x.Expr, vr, g, vc)
		if err != nil {
			return storage.Null(), err
		}
		lo, err := vEvalGroupExpr(x.Lo, vr, g, vc)
		if err != nil {
			return storage.Null(), err
		}
		hi, err := vEvalGroupExpr(x.Hi, vr, g, vc)
		if err != nil {
			return storage.Null(), err
		}
		return evalExpr(&BetweenExpr{
			Expr: &Literal{Val: v}, Lo: &Literal{Val: lo}, Hi: &Literal{Val: hi}, Not: x.Not,
		}, nil, nil)
	case *IsNullExpr:
		v, err := vEvalGroupExpr(x.Expr, vr, g, vc)
		if err != nil {
			return storage.Null(), err
		}
		return storage.Bool(v.IsNull() != x.Not), nil
	case *ScalarExpr:
		args := make([]storage.Value, len(x.Args))
		for i, a := range x.Args {
			v, err := vEvalGroupExpr(a, vr, g, vc)
			if err != nil {
				return storage.Null(), err
			}
			args[i] = v
		}
		return evalScalar(x.Name, args)
	default:
		return storage.Null(), fmt.Errorf("sql: unsupported expression %T in group scope", e)
	}
}

// vEvalAggregate mirrors evalAggregate: fold the non-NULL argument
// values over the group in row order, deduplicated first for DISTINCT,
// through the shared aggFold. A bare-column argument cannot fail to
// evaluate, so it is folded where it lies in its vector; any other
// argument is gathered through its kernel first, because an evaluation
// error on a later row comes before a fold error on an earlier one.
func vEvalAggregate(f *FuncExpr, vr *vrel, g *group, vc *vcompiler) (storage.Value, error) {
	if _, isStar := f.Arg.(*Star); isStar {
		if f.Name != "COUNT" {
			return storage.Null(), fmt.Errorf("sql: %s(*) is not valid", f.Name)
		}
		return storage.Int(int64(len(g.rowIdxs))), nil
	}
	arg := vc.compiled(f.Arg)
	if arg.col != nil && !f.Distinct {
		return foldColumn(f.Name, arg.col, g.rowIdxs)
	}
	k := arg.eval
	ctx := vctx{cols: vr.cols}
	var vals []storage.Value
	for _, p := range g.rowIdxs {
		ctx.phys = p
		v, err := k(&ctx)
		if err != nil {
			return storage.Null(), err
		}
		if v.IsNull() {
			continue
		}
		vals = append(vals, v)
	}
	if f.Distinct {
		vals = dedupValues(vals)
	}
	return finishAggregate(f.Name, vals)
}

// foldColumn folds col's non-NULL values at rows, in that order. The
// numeric kinds, which is what SUM, AVG, MIN and MAX are asked for,
// are read with the kind chosen once; the loop through At serves the
// rest.
func foldColumn(name string, col *storage.Vector, rows []int) (storage.Value, error) {
	fold := aggFold{name: name}
	nulls := col.Nulls()
	switch col.Kind() {
	case storage.KindInt:
		ints := col.Ints()
		for _, p := range rows {
			if nulls.Get(p) {
				continue
			}
			if err := fold.add(storage.Int(ints[p])); err != nil {
				return storage.Null(), err
			}
		}
	case storage.KindFloat:
		floats := col.Floats()
		for _, p := range rows {
			if nulls.Get(p) {
				continue
			}
			if err := fold.add(storage.Float(floats[p])); err != nil {
				return storage.Null(), err
			}
		}
	default:
		for _, p := range rows {
			if col.IsNull(p) {
				continue
			}
			if err := fold.add(col.At(p)); err != nil {
				return storage.Null(), err
			}
		}
	}
	return fold.result()
}
