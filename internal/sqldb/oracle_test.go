package sqldb

import (
	"fmt"
	"sort"

	"github.com/reliable-cda/cda/internal/storage"
)

// This file is the row-at-a-time executor, kept as the differential
// reference the columnar engine (Engine.Execute) is checked against:
// same Result, Stats, Prov, Fingerprint and errors, enforced by the
// fuzz and determinism suites. It is serial by construction — plain
// loops that share no span-and-merge code with the engine they check —
// and it lives in a _test file so that no binary carries a second
// executor.

// queryRow parses SQL text and runs it through the row executor.
func (e *Engine) queryRow(sql string) (*Result, error) {
	stmt, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	return e.executeRow(stmt)
}

// executeRow is the row-at-a-time pipeline: scan → pushdown → joins →
// residual filter → aggregation/projection.
func (e *Engine) executeRow(stmt *SelectStmt) (*Result, error) {
	var stats Stats

	rel, err := e.scan(stmt.From, stmt.FromAl, &stats)
	if err != nil {
		return nil, err
	}
	var wherePreds []Expr
	if stmt.Where != nil {
		if containsAggregate(stmt.Where) {
			return nil, fmt.Errorf("sql: aggregates are not allowed in WHERE")
		}
		wherePreds = conjuncts(stmt.Where)
	}
	// Predicate pushdown onto the base scan.
	if !e.DisableOptimizations && len(stmt.Joins) > 0 {
		// (With no joins, the final filter is the scan filter anyway.)
		var pushed []Expr
		pushed, wherePreds = pushDown(wherePreds, rel)
		stats.PushedPredicates += len(pushed)
		rel, err = e.filterRelation(rel, pushed)
		if err != nil {
			return nil, err
		}
	}
	for _, jc := range stmt.Joins {
		right, err := e.scan(jc.Table, jc.Alias, &stats)
		if err != nil {
			return nil, err
		}
		if !e.DisableOptimizations {
			var pushed []Expr
			pushed, wherePreds = pushDown(wherePreds, right)
			stats.PushedPredicates += len(pushed)
			right, err = e.filterRelation(right, pushed)
			if err != nil {
				return nil, err
			}
			if li, ri, residual, ok := equiJoinKey(jc.On, rel, right); ok {
				rel, err = e.hashJoin(rel, right, li, ri, residual, &stats)
				if err != nil {
					return nil, err
				}
				continue
			}
		}
		rel, err = e.join(rel, right, jc.On, &stats)
		if err != nil {
			return nil, err
		}
	}
	if cond := conjoin(wherePreds); cond != nil {
		rel, err = e.filterRelation(rel, wherePreds)
		if err != nil {
			return nil, err
		}
	}

	var res *Result
	if stmt.HasAggregates() || len(stmt.GroupBy) > 0 {
		res, err = e.executeAggregate(stmt, rel)
	} else {
		res, err = e.executeProjection(stmt, rel)
	}
	if err != nil {
		return nil, err
	}
	return finishResult(stmt, res, &stats), nil
}

func (e *Engine) scan(table, alias string, stats *Stats) (*relation, error) {
	t, err := e.DB.Get(table)
	if err != nil {
		return nil, err
	}
	if alias == "" {
		alias = table
	}
	rel := &relation{}
	for _, c := range t.Schema() {
		rel.aliases = append(rel.aliases, alias)
		rel.names = append(rel.names, c.Name)
	}
	n := t.NumRows()
	stats.RowsScanned += n
	rel.rows = make([][]storage.Value, n)
	for i := 0; i < n; i++ {
		rel.rows[i] = rowOf(t, i)
	}
	if e.CaptureProvenance {
		rel.prov = make([][]RowRef, n)
		for i := 0; i < n; i++ {
			rel.prov[i] = []RowRef{{Table: t.Name, Row: i}}
		}
	}
	return rel, nil
}

func (e *Engine) join(left, right *relation, on Expr, stats *Stats) (*relation, error) {
	out := &relation{
		aliases: append(append([]string{}, left.aliases...), right.aliases...),
		names:   append(append([]string{}, left.names...), right.names...),
	}
	for li, lrow := range left.rows {
		for ri, rrow := range right.rows {
			stats.RowsJoined++
			combined := make([]storage.Value, 0, len(lrow)+len(rrow))
			combined = append(combined, lrow...)
			combined = append(combined, rrow...)
			v, err := evalExpr(on, out, combined)
			if err != nil {
				return nil, err
			}
			if !isTrue(v) {
				continue
			}
			out.rows = append(out.rows, combined)
			if e.CaptureProvenance {
				p := make([]RowRef, 0, len(left.prov[li])+len(right.prov[ri]))
				p = append(p, left.prov[li]...)
				p = append(p, right.prov[ri]...)
				out.prov = append(out.prov, p)
			}
		}
	}
	return out, nil
}

// executeProjection handles non-aggregate SELECTs, including ORDER BY
// keys evaluated in the same scope as the projections.
func (e *Engine) executeProjection(stmt *SelectStmt, rel *relation) (*Result, error) {
	res := &Result{}
	if stmt.SelStar {
		res.Columns = append(res.Columns, rel.names...)
	} else {
		for _, it := range stmt.Items {
			res.Columns = append(res.Columns, it.OutputName())
		}
	}

	type keyed struct {
		row  []storage.Value
		prov []RowRef
		keys []storage.Value
	}
	var out []keyed
	orderExprs := e.orderExprs(stmt)
	for i, row := range rel.rows {
		var projected []storage.Value
		if stmt.SelStar {
			projected = row
		} else {
			projected = make([]storage.Value, len(stmt.Items))
			for j, it := range stmt.Items {
				v, err := evalExpr(it.Expr, rel, row)
				if err != nil {
					return nil, err
				}
				projected[j] = v
			}
		}
		k := keyed{row: projected}
		if e.CaptureProvenance {
			k.prov = rel.prov[i]
		}
		for _, oe := range orderExprs {
			v, err := evalExpr(oe, rel, row)
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

// filterRelation applies a predicate list to a relation — a plain
// loop: this is the row oracle the columnar engine is checked
// against, so it shares none of vFilter's span-and-merge code and is
// serial whatever GOMAXPROCS says.
func (e *Engine) filterRelation(rel *relation, preds []Expr) (*relation, error) {
	if len(preds) == 0 {
		return rel, nil
	}
	cond := conjoin(preds)
	out := &relation{aliases: rel.aliases, names: rel.names}
	for i, row := range rel.rows {
		v, err := evalExpr(cond, rel, row)
		if err != nil {
			return nil, err
		}
		if isTrue(v) {
			out.rows = append(out.rows, row)
			if e.CaptureProvenance {
				out.prov = append(out.prov, rel.prov[i])
			}
		}
	}
	return out, nil
}

// hashJoin builds a hash table on the right side and probes with the
// left, row by row in left order (bucket lists preserve right-row
// order), evaluating residual conjuncts on each candidate match.
// Serial by construction, like filterRelation.
func (e *Engine) hashJoin(left, right *relation, li, ri int, residual []Expr, stats *Stats) (*relation, error) {
	out := &relation{
		aliases: append(append([]string{}, left.aliases...), right.aliases...),
		names:   append(append([]string{}, left.names...), right.names...),
	}
	cond := conjoin(residual)
	// Build on the right (kept simple; the planner has no cardinality
	// estimates to choose sides).
	buckets := make(map[joinKey][]int, len(right.rows))
	for i, row := range right.rows {
		if key, ok := joinKeyOf(row[ri]); ok {
			buckets[key] = append(buckets[key], i)
		}
	}
	for lIdx, lrow := range left.rows {
		key, ok := joinKeyOf(lrow[li])
		if !ok {
			continue
		}
		for _, rIdx := range buckets[key] {
			stats.RowsJoined++
			combined := make([]storage.Value, 0, len(lrow)+len(right.rows[rIdx]))
			combined = append(combined, lrow...)
			combined = append(combined, right.rows[rIdx]...)
			if cond != nil {
				v, err := evalExpr(cond, out, combined)
				if err != nil {
					return nil, err
				}
				if !isTrue(v) {
					continue
				}
			}
			out.rows = append(out.rows, combined)
			if e.CaptureProvenance {
				p := make([]RowRef, 0, len(left.prov[lIdx])+len(right.prov[rIdx]))
				p = append(p, left.prov[lIdx]...)
				p = append(p, right.prov[rIdx]...)
				out.prov = append(out.prov, p)
			}
		}
	}
	stats.HashJoins++
	return out, nil
}

// executeAggregate handles SELECTs with aggregates and/or GROUP BY.
// With no GROUP BY the whole (filtered) relation forms one group.
// HAVING and ORDER BY expressions are evaluated in group scope, where
// aggregate calls compute over the group and plain column references
// must be group keys.
func (e *Engine) executeAggregate(stmt *SelectStmt, rel *relation) (*Result, error) {
	if stmt.SelStar {
		return nil, fmt.Errorf("sql: SELECT * cannot be combined with aggregation")
	}
	// Validate: non-aggregate select items must appear in GROUP BY.
	for _, it := range stmt.Items {
		if err := validateGroupExpr(it.Expr, stmt.GroupBy); err != nil {
			return nil, err
		}
	}

	groups := buildGroups(stmt.GroupBy, rel)
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
			hv, err := evalGroupExpr(stmt.Having, rel, g)
			if err != nil {
				return nil, err
			}
			if !isTrue(hv) {
				continue
			}
		}
		row := make([]storage.Value, len(stmt.Items))
		for j, it := range stmt.Items {
			v, err := evalGroupExpr(it.Expr, rel, g)
			if err != nil {
				return nil, err
			}
			row[j] = v
		}
		k := keyed{row: row}
		if e.CaptureProvenance {
			k.prov = groupProvenance(rel, g)
		}
		for _, oe := range orderExprs {
			v, err := evalGroupExpr(oe, rel, g)
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

func buildGroups(groupBy []Expr, rel *relation) []*group {
	if len(groupBy) == 0 {
		g := &group{}
		for i := range rel.rows {
			g.rowIdxs = append(g.rowIdxs, i)
		}
		return []*group{g}
	}
	index := make(map[string]*group)
	var order []*group
	var key []byte
	for i, row := range rel.rows {
		key = key[:0]
		for _, ge := range groupBy {
			v, err := evalExpr(ge, rel, row)
			if err != nil {
				// Surface evaluation errors lazily via a sentinel group;
				// in practice GROUP BY keys are column refs validated
				// earlier, so treat errors as NULL keys.
				v = storage.Null()
			}
			key = appendKeyed(key, v)
		}
		g, ok := index[string(key)]
		if !ok {
			g = &group{}
			index[string(key)] = g
			order = append(order, g)
		}
		g.rowIdxs = append(g.rowIdxs, i)
	}
	return order
}

func groupProvenance(rel *relation, g *group) []RowRef {
	var out []RowRef
	seen := make(map[RowRef]struct{})
	for _, i := range g.rowIdxs {
		for _, r := range rel.prov[i] {
			if _, ok := seen[r]; !ok {
				seen[r] = struct{}{}
				out = append(out, r)
			}
		}
	}
	return out
}

// evalGroupExpr evaluates an expression in group scope: FuncExpr nodes
// aggregate over the group's rows; everything else evaluates against
// the group's first row (valid because validation restricts bare
// columns to group keys, which are constant within a group).
func evalGroupExpr(e Expr, rel *relation, g *group) (storage.Value, error) {
	switch x := e.(type) {
	case *FuncExpr:
		return evalAggregate(x, rel, g)
	case *Literal:
		return x.Val, nil
	case *ColumnRef:
		if len(g.rowIdxs) == 0 {
			return storage.Null(), nil
		}
		return evalExpr(x, rel, rel.rows[g.rowIdxs[0]])
	case *BinaryExpr:
		// Rebuild with group-evaluated leaves: handle aggregates nested
		// in arithmetic, e.g. SUM(x)/COUNT(*).
		l, err := evalGroupExpr(x.Left, rel, g)
		if err != nil {
			return storage.Null(), err
		}
		r, err := evalGroupExpr(x.Right, rel, g)
		if err != nil {
			return storage.Null(), err
		}
		lit := &BinaryExpr{Op: x.Op, Left: &Literal{Val: l}, Right: &Literal{Val: r}}
		return evalExpr(lit, rel, nil)
	case *UnaryExpr:
		v, err := evalGroupExpr(x.Expr, rel, g)
		if err != nil {
			return storage.Null(), err
		}
		return evalExpr(&UnaryExpr{Op: x.Op, Expr: &Literal{Val: v}}, rel, nil)
	case *InExpr:
		v, err := evalGroupExpr(x.Expr, rel, g)
		if err != nil {
			return storage.Null(), err
		}
		list := make([]Expr, len(x.List))
		for i, it := range x.List {
			iv, err := evalGroupExpr(it, rel, g)
			if err != nil {
				return storage.Null(), err
			}
			list[i] = &Literal{Val: iv}
		}
		return evalExpr(&InExpr{Expr: &Literal{Val: v}, List: list, Not: x.Not}, rel, nil)
	case *BetweenExpr:
		v, err := evalGroupExpr(x.Expr, rel, g)
		if err != nil {
			return storage.Null(), err
		}
		lo, err := evalGroupExpr(x.Lo, rel, g)
		if err != nil {
			return storage.Null(), err
		}
		hi, err := evalGroupExpr(x.Hi, rel, g)
		if err != nil {
			return storage.Null(), err
		}
		return evalExpr(&BetweenExpr{
			Expr: &Literal{Val: v}, Lo: &Literal{Val: lo}, Hi: &Literal{Val: hi}, Not: x.Not,
		}, rel, nil)
	case *IsNullExpr:
		v, err := evalGroupExpr(x.Expr, rel, g)
		if err != nil {
			return storage.Null(), err
		}
		return storage.Bool(v.IsNull() != x.Not), nil
	case *ScalarExpr:
		args := make([]storage.Value, len(x.Args))
		for i, a := range x.Args {
			v, err := evalGroupExpr(a, rel, g)
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

func evalAggregate(f *FuncExpr, rel *relation, g *group) (storage.Value, error) {
	if _, isStar := f.Arg.(*Star); isStar {
		if f.Name != "COUNT" {
			return storage.Null(), fmt.Errorf("sql: %s(*) is not valid", f.Name)
		}
		return storage.Int(int64(len(g.rowIdxs))), nil
	}
	// Gather non-NULL argument values over the group.
	var vals []storage.Value
	for _, i := range g.rowIdxs {
		v, err := evalExpr(f.Arg, rel, rel.rows[i])
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

// rowOf materializes row i of t as a fresh slice.
func rowOf(t *storage.Table, i int) []storage.Value {
	out := make([]storage.Value, t.NumCols())
	for c := range out {
		out[c] = t.At(i, c)
	}
	return out
}
