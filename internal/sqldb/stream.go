package sqldb

import (
	"context"
	"fmt"

	"github.com/reliable-cda/cda/internal/storage"
)

// Streaming execution: ExecStream runs the columnar pipeline over the
// driving (FROM) table in batches, emitting a partial Result snapshot
// after each batch together with a completeness bound that only
// tightens. The final snapshot is byte-identical to Execute's Result —
// filters and joins distribute over row batches (outputs are
// row-ordered concatenations), and the non-decomposable stages
// (aggregation, ORDER BY, DISTINCT, OFFSET/LIMIT) are re-run over the
// accumulated relation for every snapshot, so each partial is itself
// an exact answer to the query restricted to the rows consumed so far.

// Partial is one streaming snapshot.
type Partial struct {
	// Result is the exact query answer over the driving-table prefix
	// consumed so far. Its Stats reflect work done so far; the final
	// snapshot's Stats equal Execute's.
	Result *Result
	// Completeness is the fraction of the driving table consumed, in
	// [0, 1]; it is non-decreasing across snapshots and reaches 1 on
	// the final one. Callers scale answer confidence by it.
	Completeness float64
	// Done marks the final snapshot.
	Done bool
}

// StreamOptions tunes ExecStream.
type StreamOptions struct {
	// BatchRows is the number of driving-table physical rows consumed
	// per batch; 0 picks a quarter of the table (minimum 1) so even
	// small tables stream several snapshots.
	BatchRows int
}

// streamJoin is one prepared join: the right side already scanned and
// pre-filtered, the hash table (for equi joins) already built, so
// per-batch work is probe-only.
type streamJoin struct {
	right    *vrel
	on       Expr
	equi     bool
	li       int
	buckets  map[joinKey][]int
	residual []Expr
}

// ExecStream executes stmt in streaming batches, calling emit after
// each batch. It stops early when ctx is cancelled (returning the
// context error) or when emit returns a non-nil error (returning that
// error). Right-hand join sides are prepared once up front; only the
// driving table streams — the same shape ProS-style progressive
// retrieval uses, generalized to the SQL pipeline.
func (e *Engine) ExecStream(ctx context.Context, stmt *SelectStmt, opts StreamOptions, emit func(Partial) error) error {
	if e.Faults != nil {
		if err := e.Faults.Inject("sqldb.execute"); err != nil {
			return err
		}
	}
	var stats Stats
	base, err := e.vScan(stmt.From, stmt.FromAl, &stats)
	if err != nil {
		return err
	}
	var wherePreds []Expr
	if stmt.Where != nil {
		if containsAggregate(stmt.Where) {
			return fmt.Errorf("sql: aggregates are not allowed in WHERE")
		}
		wherePreds = conjuncts(stmt.Where)
	}
	// Plan once, mirroring executeVec's stage order so pushdown
	// bookkeeping (PushedPredicates, HashJoins) matches Execute.
	var basePush []Expr
	if !e.DisableOptimizations && len(stmt.Joins) > 0 {
		basePush, wherePreds = pushDown(wherePreds, base)
		stats.PushedPredicates += len(basePush)
	}
	// leftSchema tracks the schema the accumulated relation will have
	// after each join, for equi-key resolution.
	leftSchema := &vrel{
		aliases: append([]string{}, base.aliases...),
		names:   append([]string{}, base.names...),
		cols:    append([]*storage.Vector{}, base.cols...),
	}
	joins := make([]streamJoin, 0, len(stmt.Joins))
	for _, jc := range stmt.Joins {
		right, err := e.vScan(jc.Table, jc.Alias, &stats)
		if err != nil {
			return err
		}
		sj := streamJoin{on: jc.On}
		if !e.DisableOptimizations {
			var pushed []Expr
			pushed, wherePreds = pushDown(wherePreds, right)
			stats.PushedPredicates += len(pushed)
			right, err = e.vFilter(right, pushed)
			if err != nil {
				return err
			}
			if li, ri, residual, ok := equiJoinKey(jc.On, leftSchema, right); ok {
				sj.equi, sj.li, sj.residual = true, li, residual
				sj.buckets = buildBuckets(right, ri)
				stats.HashJoins++
			}
		}
		sj.right = right
		joins = append(joins, sj)
		leftSchema.aliases = append(leftSchema.aliases, right.aliases...)
		leftSchema.names = append(leftSchema.names, right.names...)
		leftSchema.cols = append(leftSchema.cols, right.cols...)
	}
	residualWhere := wherePreds

	// The accumulator holds the post-join, post-filter relation built
	// so far: materialized columns of the sources' kinds plus explicit
	// provenance.
	acc := &vrel{aliases: leftSchema.aliases, names: leftSchema.names}
	for _, src := range leftSchema.cols {
		acc.cols = append(acc.cols, storage.NewVector(src.Kind(), 0))
	}

	total := base.nphys
	batch := opts.BatchRows
	if batch <= 0 {
		batch = (total + 3) / 4
	}
	if batch < 1 {
		batch = 1
	}

	snapshot := func(consumed int) error {
		snap := *acc
		snapStats := stats
		var res *Result
		var err error
		if stmt.HasAggregates() || len(stmt.GroupBy) > 0 {
			res, err = e.vExecuteAggregate(stmt, &snap)
		} else {
			res, err = e.vProjection(stmt, &snap)
		}
		if err != nil {
			return err
		}
		res = finishResult(stmt, res, &snapStats)
		completeness := 1.0
		if total > 0 {
			completeness = float64(consumed) / float64(total)
		}
		return emit(Partial{Result: res, Completeness: completeness, Done: consumed == total})
	}

	if total == 0 {
		return snapshot(0)
	}
	for lo := 0; lo < total; lo += batch {
		if err := ctx.Err(); err != nil {
			return err
		}
		hi := lo + batch
		if hi > total {
			hi = total
		}
		window := make([]int, hi-lo)
		for i := range window {
			window[i] = lo + i
		}
		cur := &vrel{
			aliases: base.aliases, names: base.names,
			cols: base.cols, nphys: base.nphys,
			sel: window, base: base.base,
		}
		cur, err := e.vFilter(cur, basePush)
		if err != nil {
			return err
		}
		for _, sj := range joins {
			if sj.equi {
				cur, err = e.vProbeJoin(cur, sj.right, sj.li, sj.buckets, sj.residual, &stats)
			} else {
				cur, err = e.vNestedJoin(cur, sj.right, sj.on, &stats)
			}
			if err != nil {
				return err
			}
		}
		cur, err = e.vFilter(cur, residualWhere)
		if err != nil {
			return err
		}
		if err := appendToAccumulator(acc, cur, e.CaptureProvenance); err != nil {
			return err
		}
		if err := snapshot(hi); err != nil {
			return err
		}
	}
	return nil
}

// appendToAccumulator materializes the batch's selected rows onto the
// accumulator's columns, carrying provenance across.
func appendToAccumulator(acc, b *vrel, capture bool) error {
	n := b.length()
	for c, col := range b.cols {
		if b.sel != nil {
			col = col.Gather(b.sel)
		}
		if err := acc.cols[c].Extend(col); err != nil {
			return err
		}
	}
	if capture {
		for pos := 0; pos < n; pos++ {
			acc.prov = append(acc.prov, b.provOf(b.phys(pos)))
		}
	}
	acc.nphys += n
	return nil
}
