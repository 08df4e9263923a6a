package sqldb

import (
	"fmt"
	"strings"

	"github.com/reliable-cda/cda/internal/storage"
)

// group collects the rows sharing one GROUP BY key tuple.
type group struct {
	rowIdxs []int
}

// validateGroupExpr rejects select items that reference columns
// outside aggregates without those columns being GROUP BY keys.
func validateGroupExpr(e Expr, groupBy []Expr) error {
	switch x := e.(type) {
	case nil, *Literal, *Star:
		return nil
	case *FuncExpr:
		return nil // aggregates may reference anything
	case *ColumnRef:
		for _, g := range groupBy {
			if exprEqual(g, x) {
				return nil
			}
		}
		return fmt.Errorf("sql: column %q must appear in GROUP BY or inside an aggregate", x.Render())
	case *BinaryExpr:
		if err := validateGroupExpr(x.Left, groupBy); err != nil {
			return err
		}
		return validateGroupExpr(x.Right, groupBy)
	case *UnaryExpr:
		return validateGroupExpr(x.Expr, groupBy)
	case *InExpr:
		if err := validateGroupExpr(x.Expr, groupBy); err != nil {
			return err
		}
		for _, it := range x.List {
			if err := validateGroupExpr(it, groupBy); err != nil {
				return err
			}
		}
		return nil
	case *BetweenExpr:
		if err := validateGroupExpr(x.Expr, groupBy); err != nil {
			return err
		}
		if err := validateGroupExpr(x.Lo, groupBy); err != nil {
			return err
		}
		return validateGroupExpr(x.Hi, groupBy)
	case *IsNullExpr:
		return validateGroupExpr(x.Expr, groupBy)
	case *ScalarExpr:
		for _, a := range x.Args {
			if err := validateGroupExpr(a, groupBy); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("sql: unsupported expression %T in aggregate query", e)
	}
}

// exprEqual compares two expressions by canonical rendering, which is
// sound because Render is deterministic and fully parenthesized.
func exprEqual(a, b Expr) bool {
	return strings.EqualFold(a.Render(), b.Render())
}

// dedupValues removes duplicate values in first-appearance order,
// keyed by kind-tagged rendering (the DISTINCT aggregate semantics).
func dedupValues(vals []storage.Value) []storage.Value {
	seen := make(map[string]struct{}, len(vals))
	dedup := vals[:0]
	for _, v := range vals {
		k := v.Kind.String() + ":" + v.String()
		if _, ok := seen[k]; ok {
			continue
		}
		seen[k] = struct{}{}
		dedup = append(dedup, v)
	}
	return dedup
}

// aggFold is one aggregate being folded over its non-NULL argument
// values in row order. It is the only aggregate arithmetic — the row
// engine and the columnar engine's gathered and in-place paths all
// feed it — so accumulation order (float summation order, MIN/MAX
// comparison order) cannot drift between them.
type aggFold struct {
	name     string
	n        int
	sum      float64
	sawFloat bool
	best     storage.Value
}

// add folds in one non-NULL value.
func (a *aggFold) add(v storage.Value) error {
	switch a.name {
	case "SUM", "AVG":
		fv, ok := v.AsFloat()
		if !ok || v.Kind == storage.KindString || v.Kind == storage.KindBool {
			return fmt.Errorf("sql: %s over non-numeric value %s", a.name, v.Kind)
		}
		if v.Kind != storage.KindInt {
			a.sawFloat = true
		}
		a.sum += fv
	case "MIN", "MAX":
		if a.n == 0 {
			a.best = v
			break
		}
		c, err := v.Compare(a.best)
		if err != nil {
			return err
		}
		if (a.name == "MIN" && c < 0) || (a.name == "MAX" && c > 0) {
			a.best = v
		}
	}
	a.n++
	return nil
}

// result returns the aggregate of the values added.
func (a *aggFold) result() (storage.Value, error) {
	switch a.name {
	case "COUNT":
		return storage.Int(int64(a.n)), nil
	case "SUM", "AVG":
		switch {
		case a.n == 0:
			return storage.Null(), nil
		case a.name == "AVG":
			return storage.Float(a.sum / float64(a.n)), nil
		case a.sawFloat:
			return storage.Float(a.sum), nil
		default:
			return storage.Int(int64(a.sum)), nil
		}
	case "MIN", "MAX":
		if a.n == 0 {
			return storage.Null(), nil
		}
		return a.best, nil
	default:
		return storage.Null(), fmt.Errorf("sql: unknown aggregate %s", a.name)
	}
}

// finishAggregate folds gathered non-NULL argument values.
func finishAggregate(name string, vals []storage.Value) (storage.Value, error) {
	a := aggFold{name: name}
	for _, v := range vals {
		if err := a.add(v); err != nil {
			return storage.Null(), err
		}
	}
	return a.result()
}
