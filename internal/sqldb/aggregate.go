package sqldb

import (
	"fmt"
	"strings"

	"github.com/reliable-cda/cda/internal/storage"
)

// group collects the rows sharing one GROUP BY key tuple.
type group struct {
	key     []storage.Value
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

// finishAggregate folds gathered non-NULL argument values. It is
// shared by the row and vectorized engines so accumulation order —
// float summation order, MIN/MAX comparison order — is one piece of
// code, not two that could drift.
func finishAggregate(name string, vals []storage.Value) (storage.Value, error) {
	switch name {
	case "COUNT":
		return storage.Int(int64(len(vals))), nil
	case "SUM", "AVG":
		if len(vals) == 0 {
			return storage.Null(), nil
		}
		var sum float64
		allInt := true
		for _, v := range vals {
			fv, ok := v.AsFloat()
			if !ok || v.Kind == storage.KindString || v.Kind == storage.KindBool {
				return storage.Null(), fmt.Errorf("sql: %s over non-numeric value %s", name, v.Kind)
			}
			if v.Kind != storage.KindInt {
				allInt = false
			}
			sum += fv
		}
		if name == "AVG" {
			return storage.Float(sum / float64(len(vals))), nil
		}
		if allInt {
			return storage.Int(int64(sum)), nil
		}
		return storage.Float(sum), nil
	case "MIN", "MAX":
		if len(vals) == 0 {
			return storage.Null(), nil
		}
		best := vals[0]
		for _, v := range vals[1:] {
			c, err := v.Compare(best)
			if err != nil {
				return storage.Null(), err
			}
			if (name == "MIN" && c < 0) || (name == "MAX" && c > 0) {
				best = v
			}
		}
		return best, nil
	default:
		return storage.Null(), fmt.Errorf("sql: unknown aggregate %s", name)
	}
}
