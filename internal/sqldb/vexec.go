package sqldb

import (
	"fmt"
	"math/bits"
	"runtime"
	"sort"
	"sync"

	"github.com/reliable-cda/cda/internal/storage"
)

// This file is the batch-at-a-time executor: the same pipeline as
// executeRow (scan → pushdown → joins → residual filter →
// aggregation/projection) over the vrel columnar representation.
// Every operator preserves row order and first-error order, so
// Result, Stats, Prov, and Fingerprint are byte-identical to the row
// engine's (oracle_test.go) — a property the differential tests in
// fuzz_test.go and parallel_determinism_test.go enforce.

// executeVec runs the columnar pipeline. Structure mirrors executeRow
// stage for stage so the two engines stay diffable side by side.
func (e *Engine) executeVec(stmt *SelectStmt) (*Result, error) {
	var stats Stats

	vr, err := e.vScan(stmt.From, stmt.FromAl, &stats)
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
	if !e.DisableOptimizations && len(stmt.Joins) > 0 {
		var pushed []Expr
		pushed, wherePreds = pushDown(wherePreds, vr)
		stats.PushedPredicates += len(pushed)
		vr, err = e.vFilter(vr, pushed)
		if err != nil {
			return nil, err
		}
	}
	for _, jc := range stmt.Joins {
		right, err := e.vScan(jc.Table, jc.Alias, &stats)
		if err != nil {
			return nil, err
		}
		if !e.DisableOptimizations {
			var pushed []Expr
			pushed, wherePreds = pushDown(wherePreds, right)
			stats.PushedPredicates += len(pushed)
			right, err = e.vFilter(right, pushed)
			if err != nil {
				return nil, err
			}
			if li, ri, residual, ok := equiJoinKey(jc.On, vr, right); ok {
				stats.HashJoins++
				buckets := buildBuckets(right, ri)
				vr, err = e.vProbeJoin(vr, right, li, buckets, residual, &stats)
				if err != nil {
					return nil, err
				}
				continue
			}
		}
		vr, err = e.vNestedJoin(vr, right, jc.On, &stats)
		if err != nil {
			return nil, err
		}
	}
	if cond := conjoin(wherePreds); cond != nil {
		vr, err = e.vFilter(vr, wherePreds)
		if err != nil {
			return nil, err
		}
	}

	var res *Result
	if stmt.HasAggregates() || len(stmt.GroupBy) > 0 {
		res, err = e.vExecuteAggregate(stmt, vr)
	} else {
		res, err = e.vProjection(stmt, vr)
	}
	if err != nil {
		return nil, err
	}
	return finishResult(stmt, res, &stats), nil
}

// vScan opens a zero-copy columnar view of a base table: no per-row
// materialization, no provenance allocation (provOf derives {table,
// row} lazily for rows that survive).
func (e *Engine) vScan(table, alias string, stats *Stats) (*vrel, error) {
	t, err := e.DB.Get(table)
	if err != nil {
		return nil, err
	}
	if alias == "" {
		alias = table
	}
	vr := &vrel{nphys: t.NumRows()}
	for i, c := range t.Schema() {
		vr.aliases = append(vr.aliases, alias)
		vr.names = append(vr.names, c.Name)
		vr.cols = append(vr.cols, t.Vector(i))
	}
	stats.RowsScanned += vr.nphys
	if e.CaptureProvenance {
		vr.base = t.Name
	}
	return vr, nil
}

// filterSpanMin is the selection size from which vFilter fans out:
// below about a thousand cheap predicate evaluations the goroutines
// cost more than the scan they would share.
const filterSpanMin = 1024

// vFilter refines the selection vector by the conjoined predicates,
// scanning it through scanSpans. A span marks its survivors in a bitmap
// first, so that the slice it returns is sized by what survives, not by
// the span. (It is empty, not nil, when none does: a nil selection is
// every row.)
func (e *Engine) vFilter(vr *vrel, preds []Expr) (*vrel, error) {
	if len(preds) == 0 {
		return vr, nil
	}
	k := (&vcompiler{res: vr, cols: vr.cols}).compile(conjoin(preds))
	scan := func(lo, hi int) ([]int, error) {
		hits := make([]uint64, (hi-lo+63)/64)
		n := 0
		// Each span's goroutine writes its vctx once a row, and the vctx
		// escapes to the heap. Padded, it shares no cache line with
		// whatever sits beside it there: a kernel closure that every
		// span reads every row would otherwise bounce between cores.
		padded := &struct {
			_   [64]byte
			ctx vctx
			_   [64]byte
		}{ctx: vctx{cols: vr.cols}}
		ctx := &padded.ctx
		for pos := lo; pos < hi; pos++ {
			ctx.phys = vr.phys(pos)
			v, err := k(ctx)
			if err != nil {
				return nil, err
			}
			if isTrue(v) {
				hits[(pos-lo)>>6] |= 1 << (uint(pos-lo) & 63)
				n++
			}
		}
		keep := make([]int, 0, n)
		for w, word := range hits {
			for ; word != 0; word &= word - 1 {
				keep = append(keep, vr.phys(lo+w<<6+bits.TrailingZeros64(word)))
			}
		}
		return keep, nil
	}
	sel, err := scanSpans(vr.length(), scan)
	if err != nil {
		return nil, err
	}
	out := *vr
	out.sel = sel
	return &out, nil
}

// scanSpans runs scan over [0, n). From filterSpanMin positions on it
// cuts [0, n) into one contiguous span per GOMAXPROCS worker; span
// outputs concatenate in span order and the lowest span's error wins,
// so the result — and the first error — are a serial scan's whatever
// the width.
func scanSpans(n int, scan func(lo, hi int) ([]int, error)) ([]int, error) {
	spans := 1
	if n >= filterSpanMin {
		spans = runtime.GOMAXPROCS(0)
	}
	if spans == 1 {
		return scan(0, n)
	}
	keeps := make([][]int, spans)
	errs := make([]error, spans)
	var wg sync.WaitGroup
	for i := range spans {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			keeps[i], errs[i] = scan(i*n/spans, (i+1)*n/spans)
		}(i)
	}
	wg.Wait()
	total := 0
	for i, keep := range keeps {
		if errs[i] != nil {
			return nil, errs[i]
		}
		total += len(keep)
	}
	sel := make([]int, 0, total)
	for _, keep := range keeps {
		sel = append(sel, keep...)
	}
	return sel, nil
}

// buildBuckets builds the hash-join table over the right relation's
// key column: joinKey → physical row indexes in selection order
// (matching the row engine's bucket order over surviving rows).
func buildBuckets(right *vrel, ri int) map[joinKey][]int {
	col := right.cols[ri]
	n := right.length()
	buckets := make(map[joinKey][]int, n)
	for pos := 0; pos < n; pos++ {
		rp := right.phys(pos)
		if key, ok := joinKeyOf(col.At(rp)); ok {
			buckets[key] = append(buckets[key], rp)
		}
	}
	return buckets
}

// vProbeJoin probes the prebuilt buckets with the left relation,
// evaluating residual ON conjuncts on each candidate pair without
// materializing combined rows, then gathers the matched pairs into
// fresh output columns. Candidate order is left-row-major with bucket
// order within a row — the row engine's exact order.
func (e *Engine) vProbeJoin(left, right *vrel, li int, buckets map[joinKey][]int, residual []Expr, stats *Stats) (*vrel, error) {
	out := &vrel{
		aliases: append(append([]string{}, left.aliases...), right.aliases...),
		names:   append(append([]string{}, left.names...), right.names...),
	}
	var resid vkernel
	if cond := conjoin(residual); cond != nil {
		resid = (&vcompiler{res: out}).compile(cond)
	}
	lcol := left.cols[li]
	var lidx, ridx []int
	ctx := vctx{cols: left.cols, rcols: right.cols, split: len(left.cols)}
	n := left.length()
	for pos := 0; pos < n; pos++ {
		lp := left.phys(pos)
		key, ok := joinKeyOf(lcol.At(lp))
		if !ok {
			continue
		}
		matches := buckets[key]
		if len(matches) == 0 {
			continue
		}
		stats.RowsJoined += len(matches)
		if resid == nil {
			for range matches {
				lidx = append(lidx, lp)
			}
			ridx = append(ridx, matches...)
			continue
		}
		ctx.phys = lp
		for _, rp := range matches {
			ctx.rphys = rp
			v, err := resid(&ctx)
			if err != nil {
				return nil, err
			}
			if !isTrue(v) {
				continue
			}
			lidx = append(lidx, lp)
			ridx = append(ridx, rp)
		}
	}
	return e.vGatherJoin(left, right, lidx, ridx, out), nil
}

// vNestedJoin is the fallback O(n·m) join (non-equi ON conditions, or
// DisableOptimizations). It stays serial like the row engine's.
func (e *Engine) vNestedJoin(left, right *vrel, on Expr, stats *Stats) (*vrel, error) {
	out := &vrel{
		aliases: append(append([]string{}, left.aliases...), right.aliases...),
		names:   append(append([]string{}, left.names...), right.names...),
	}
	k := (&vcompiler{res: out}).compile(on)
	var lidx, ridx []int
	ctx := vctx{cols: left.cols, rcols: right.cols, split: len(left.cols)}
	nl, nr := left.length(), right.length()
	for lpos := 0; lpos < nl; lpos++ {
		lp := left.phys(lpos)
		ctx.phys = lp
		for rpos := 0; rpos < nr; rpos++ {
			rp := right.phys(rpos)
			stats.RowsJoined++
			ctx.rphys = rp
			v, err := k(&ctx)
			if err != nil {
				return nil, err
			}
			if !isTrue(v) {
				continue
			}
			lidx = append(lidx, lp)
			ridx = append(ridx, rp)
		}
	}
	return e.vGatherJoin(left, right, lidx, ridx, out), nil
}

// vGatherJoin materializes the joined output: fresh vectors of the
// sources' kinds gathered from the matched (left, right) physical row
// pairs, plus concatenated per-row provenance (left refs then right
// refs, no dedup — matching the row engine's join provenance).
func (e *Engine) vGatherJoin(left, right *vrel, lidx, ridx []int, out *vrel) *vrel {
	n := len(lidx)
	out.nphys = n
	for _, col := range left.cols {
		out.cols = append(out.cols, col.Gather(lidx))
	}
	for _, col := range right.cols {
		out.cols = append(out.cols, col.Gather(ridx))
	}
	if e.CaptureProvenance {
		out.prov = make([][]RowRef, n)
		for i := range out.prov {
			lrefs := left.provOf(lidx[i])
			rrefs := right.provOf(ridx[i])
			p := make([]RowRef, 0, len(lrefs)+len(rrefs))
			p = append(p, lrefs...)
			out.prov[i] = append(p, rrefs...)
		}
	}
	return out
}

// vProjection handles non-aggregate SELECTs over a vrel. Rows are
// produced in selection order; per-row evaluation order (items, then
// ORDER BY keys) matches executeProjection so the first error is
// identical; the stable sort then sees the same pre-sort order and the
// same keys.
func (e *Engine) vProjection(stmt *SelectStmt, vr *vrel) (*Result, error) {
	res := &Result{}
	if stmt.SelStar {
		res.Columns = append(res.Columns, vr.names...)
	} else {
		for _, it := range stmt.Items {
			res.Columns = append(res.Columns, it.OutputName())
		}
	}
	vc := &vcompiler{res: vr, cols: vr.cols}
	var itemKs []vkernel
	if !stmt.SelStar {
		for _, it := range stmt.Items {
			itemKs = append(itemKs, vc.compile(it.Expr))
		}
	}
	var orderKs []vkernel
	for _, oe := range e.orderExprs(stmt) {
		orderKs = append(orderKs, vc.compile(oe))
	}

	type keyed struct {
		row  []storage.Value
		prov []RowRef
		keys []storage.Value
	}
	n := vr.length()
	out := make([]keyed, 0, n)
	ctx := vctx{cols: vr.cols}
	for pos := 0; pos < n; pos++ {
		p := vr.phys(pos)
		ctx.phys = p
		var projected []storage.Value
		if stmt.SelStar {
			projected = make([]storage.Value, len(vr.cols))
			for c, col := range vr.cols {
				projected[c] = col.At(p)
			}
		} else {
			projected = make([]storage.Value, len(itemKs))
			for j, k := range itemKs {
				v, err := k(&ctx)
				if err != nil {
					return nil, err
				}
				projected[j] = v
			}
		}
		kd := keyed{row: projected}
		if e.CaptureProvenance {
			kd.prov = vr.provOf(p)
		}
		for _, ok := range orderKs {
			v, err := ok(&ctx)
			if err != nil {
				return nil, err
			}
			kd.keys = append(kd.keys, v)
		}
		out = append(out, kd)
	}
	if len(orderKs) > 0 {
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
