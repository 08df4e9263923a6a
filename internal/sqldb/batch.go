package sqldb

import (
	"fmt"
	"strings"

	"github.com/reliable-cda/cda/internal/storage"
)

// This file holds the batch (columnar) execution substrate: the vrel
// intermediate representation and the compiled expression kernels.
//
// The row executor (exec.go) evaluates the Expr AST once per row,
// re-resolving every column reference by a linear scan over the schema
// and materializing a fresh []storage.Value per scanned row. The
// vectorized executor instead keeps data in typed column vectors
// (storage.Table's own for base scans), tracks surviving rows in a
// selection vector, and compiles each expression once per relation
// schema into a closure tree with column indexes already bound.
//
// Semantics are identical BY CONSTRUCTION, not by reimplementation:
// every kernel mirrors the corresponding evalExpr case statement for
// statement, calls the same helpers (Value.Compare, evalArith,
// evalScalar, isTrue, likeMatch), and preserves evaluation order —
// including which sub-expression errors first and that unresolvable
// columns fail at evaluation time, not compile time (a query over an
// empty table must succeed even if it references unknown columns,
// exactly as the row engine behaves). The kernels bound to a vector's
// kind (columnKernel, compareKernel, and foldColumn in vagg.go) each
// sit beside the generic kernel they stand in for and return what it
// would; the row oracle, which reads cells through Table.Row, is what
// checks them.

// vrel is the columnar intermediate relation: parallel column vectors
// with an optional selection vector of surviving physical rows.
type vrel struct {
	aliases []string // per column
	names   []string // per column
	// cols are the physical column vectors; for base-table scans they
	// are storage.Table's own (zero copy) and must be treated as
	// read-only. A derived relation's vectors are of its source's kinds.
	cols  []*storage.Vector
	nphys int
	// sel lists the selected physical row indexes in ascending order;
	// nil means all rows are selected. Filters refine sel without
	// touching cols, so a scan+filter never copies values.
	sel []int
	// base, when non-empty, names the base table: provenance is the
	// identity {base, phys} and is materialized lazily only for rows
	// that survive to a join or projection (the row engine allocates a
	// RowRef slice for every scanned row up front).
	base string
	// prov holds explicit per-physical-row provenance for derived
	// relations (join outputs, streaming accumulators).
	prov [][]RowRef
}

func (vr *vrel) resolve(ref *ColumnRef) (int, error) {
	return resolveColumn(vr.aliases, vr.names, ref)
}

// length returns the selected row count.
func (vr *vrel) length() int {
	if vr.sel == nil {
		return vr.nphys
	}
	return len(vr.sel)
}

// phys maps a selection position to its physical row index.
func (vr *vrel) phys(pos int) int {
	if vr.sel == nil {
		return pos
	}
	return vr.sel[pos]
}

// provOf returns the provenance of one physical row. Callers must not
// mutate the result (derived relations share the stored slice, exactly
// as the row engine shares rel.prov[i]).
func (vr *vrel) provOf(phys int) []RowRef {
	if vr.base != "" {
		return []RowRef{{Table: vr.base, Row: phys}}
	}
	if vr.prov == nil {
		return nil
	}
	return vr.prov[phys]
}

// vctx addresses one row during kernel evaluation. For join
// conditions the row is a virtual concatenation of a left and right
// relation: columns at index >= split come from rcols at rphys. This
// lets ON/residual predicates run without materializing combined rows.
type vctx struct {
	cols  []*storage.Vector
	phys  int
	rcols []*storage.Vector
	rphys int
	split int
}

func (c *vctx) col(i int) storage.Value {
	if c.rcols != nil && i >= c.split {
		return c.rcols[i-c.split].At(c.rphys)
	}
	return c.cols[i].At(c.phys)
}

// vkernel is a compiled scalar expression: evaluate against one row
// addressed by the context. Kernels are pure and re-entrant (no shared
// scratch), so vFilter's spans may share one kernel tree.
type vkernel func(c *vctx) (storage.Value, error)

// vcompiler compiles expressions against one relation schema. The
// cache is keyed by AST node identity so group-scope evaluation, which
// revisits the same argument expression once per group, compiles it
// only once. The cache is not goroutine-safe; compile before fanning
// out (compiled kernels themselves are safe to share).
type vcompiler struct {
	res columnResolver
	// cols, when set, are the vectors every vctx the kernels will see
	// carries as cols (and no rcols): the relation is at hand, so a
	// kernel over a bare column binds to its vector and kind here, once,
	// instead of finding them again per row. Join conditions, whose two
	// sides are only virtually concatenated, compile without.
	cols  []*storage.Vector
	cache map[Expr]compiled
}

// compiled is one expression's kernel and, when the expression is a
// bare reference to one of the compiler's cols, the vector it reads.
type compiled struct {
	eval vkernel
	col  *storage.Vector
}

// column returns the vector e reads when e is a bare reference to one
// of vc.cols, and nil otherwise.
func (vc *vcompiler) column(e Expr) *storage.Vector {
	ref, ok := e.(*ColumnRef)
	if !ok || vc.cols == nil {
		return nil
	}
	idx, err := vc.res.resolve(ref)
	if err != nil {
		return nil
	}
	return vc.cols[idx]
}

// compiled returns the cached kernel for e, compiling on first use.
func (vc *vcompiler) compiled(e Expr) compiled {
	if c, ok := vc.cache[e]; ok {
		return c
	}
	if vc.cache == nil {
		vc.cache = make(map[Expr]compiled)
	}
	c := compiled{eval: vc.compile(e), col: vc.column(e)}
	vc.cache[e] = c
	return c
}

// kernel returns the cached kernel for e, compiling on first use.
func (vc *vcompiler) kernel(e Expr) vkernel { return vc.compiled(e).eval }

// errKernel defers an error to evaluation time: the row engine only
// surfaces resolution (and shape) errors when a row is actually
// evaluated, so a filter over an empty relation must not fail.
func errKernel(err error) vkernel {
	return func(*vctx) (storage.Value, error) { return storage.Null(), err }
}

// compile builds the kernel tree for e. Each case mirrors the matching
// evalExpr case, with column resolution hoisted out of the per-row
// path.
func (vc *vcompiler) compile(e Expr) vkernel {
	switch x := e.(type) {
	case *Literal:
		v := x.Val
		return func(*vctx) (storage.Value, error) { return v, nil }
	case *ColumnRef:
		if col := vc.column(x); col != nil {
			return columnKernel(col)
		}
		idx, err := vc.res.resolve(x)
		if err != nil {
			return errKernel(err)
		}
		return func(c *vctx) (storage.Value, error) { return c.col(idx), nil }
	case *BinaryExpr:
		return vc.compileBinary(x)
	case *UnaryExpr:
		inner := vc.compile(x.Expr)
		switch x.Op {
		case "NOT":
			return func(c *vctx) (storage.Value, error) {
				v, err := inner(c)
				if err != nil {
					return storage.Null(), err
				}
				if v.IsNull() {
					return storage.Null(), nil
				}
				return storage.Bool(!isTrue(v)), nil
			}
		case "-":
			return func(c *vctx) (storage.Value, error) {
				v, err := inner(c)
				if err != nil {
					return storage.Null(), err
				}
				switch v.Kind {
				case storage.KindInt:
					return storage.Int(-v.I), nil
				case storage.KindFloat:
					return storage.Float(-v.F), nil
				case storage.KindNull:
					return storage.Null(), nil
				default:
					return storage.Null(), fmt.Errorf("sql: cannot negate %s", v.Kind)
				}
			}
		default:
			op := x.Op
			return func(c *vctx) (storage.Value, error) {
				// The row engine evaluates the operand before rejecting
				// the operator, so operand errors win.
				if _, err := inner(c); err != nil {
					return storage.Null(), err
				}
				return storage.Null(), fmt.Errorf("sql: unknown unary operator %q", op)
			}
		}
	case *InExpr:
		expr := vc.compile(x.Expr)
		items := make([]vkernel, len(x.List))
		for i, item := range x.List {
			items[i] = vc.compile(item)
		}
		not := x.Not
		return func(c *vctx) (storage.Value, error) {
			v, err := expr(c)
			if err != nil {
				return storage.Null(), err
			}
			if v.IsNull() {
				return storage.Null(), nil
			}
			found := false
			for _, item := range items {
				iv, err := item(c)
				if err != nil {
					return storage.Null(), err
				}
				if v.Equal(iv) {
					found = true
					break
				}
			}
			return storage.Bool(found != not), nil
		}
	case *BetweenExpr:
		expr := vc.compile(x.Expr)
		lo := vc.compile(x.Lo)
		hi := vc.compile(x.Hi)
		not := x.Not
		return func(c *vctx) (storage.Value, error) {
			v, err := expr(c)
			if err != nil {
				return storage.Null(), err
			}
			lv, err := lo(c)
			if err != nil {
				return storage.Null(), err
			}
			hv, err := hi(c)
			if err != nil {
				return storage.Null(), err
			}
			if v.IsNull() || lv.IsNull() || hv.IsNull() {
				return storage.Null(), nil
			}
			cl, err := v.Compare(lv)
			if err != nil {
				return storage.Null(), err
			}
			ch, err := v.Compare(hv)
			if err != nil {
				return storage.Null(), err
			}
			in := cl >= 0 && ch <= 0
			return storage.Bool(in != not), nil
		}
	case *IsNullExpr:
		inner := vc.compile(x.Expr)
		not := x.Not
		return func(c *vctx) (storage.Value, error) {
			v, err := inner(c)
			if err != nil {
				return storage.Null(), err
			}
			return storage.Bool(v.IsNull() != not), nil
		}
	case *ScalarExpr:
		argKs := make([]vkernel, len(x.Args))
		for i, a := range x.Args {
			argKs[i] = vc.compile(a)
		}
		name := x.Name
		return func(c *vctx) (storage.Value, error) {
			args := make([]storage.Value, len(argKs))
			for i, k := range argKs {
				v, err := k(c)
				if err != nil {
					return storage.Null(), err
				}
				args[i] = v
			}
			return evalScalar(name, args)
		}
	case *FuncExpr:
		return errKernel(fmt.Errorf("sql: aggregate %s used outside GROUP BY context", x.Name))
	case *Star:
		return errKernel(fmt.Errorf("sql: * is not a scalar expression"))
	default:
		return errKernel(fmt.Errorf("sql: unsupported expression %T", e))
	}
}

// columnKernel reads col at the context's row with the kind already
// chosen: what Vector.At does, less its switch.
func columnKernel(col *storage.Vector) vkernel {
	nulls := col.Nulls()
	switch col.Kind() {
	case storage.KindInt:
		ints := col.Ints()
		return func(c *vctx) (storage.Value, error) {
			if nulls.Get(c.phys) {
				return storage.Null(), nil
			}
			return storage.Int(ints[c.phys]), nil
		}
	case storage.KindFloat:
		floats := col.Floats()
		return func(c *vctx) (storage.Value, error) {
			if nulls.Get(c.phys) {
				return storage.Null(), nil
			}
			return storage.Float(floats[c.phys]), nil
		}
	case storage.KindString:
		dict, codes := col.Dict(), col.Codes()
		return func(c *vctx) (storage.Value, error) {
			if nulls.Get(c.phys) {
				return storage.Null(), nil
			}
			return storage.Str(dict[codes[c.phys]]), nil
		}
	default:
		return func(c *vctx) (storage.Value, error) { return col.At(c.phys), nil }
	}
}

// cmpAccepts[op][cmp+1] is whether a comparison operator holds of two
// values that compare as cmp = -1, 0 or +1.
var cmpAccepts = map[string][3]bool{
	"=": {false, true, false}, "!=": {true, false, true},
	"<": {true, false, false}, "<=": {true, true, false},
	">": {false, false, true}, ">=": {false, true, true},
}

// compareKernel is `column <cmp> literal` over the column's vector: a
// number against a number as Value.Compare compares them (both as
// float64, neither above the other being equal), a string against a
// string — each string of the column's dictionary once, when the kernel
// is built. Every other pairing — NULL or BOOL on either side, kinds
// Compare refuses — returns nil and takes the generic kernel.
func compareKernel(col *storage.Vector, op string, lit storage.Value) vkernel {
	accept := cmpAccepts[op]
	nulls := col.Nulls()
	isNumber := func(k storage.Kind) bool { return k == storage.KindInt || k == storage.KindFloat }
	switch {
	case isNumber(col.Kind()) && isNumber(lit.Kind):
		b, _ := lit.AsFloat()
		ints, floats := col.Ints(), col.Floats()
		return func(c *vctx) (storage.Value, error) {
			if nulls.Get(c.phys) {
				return storage.Null(), nil
			}
			var a float64
			if ints != nil {
				a = float64(ints[c.phys])
			} else {
				a = floats[c.phys]
			}
			cmp := 0
			if a < b {
				cmp = -1
			} else if a > b {
				cmp = 1
			}
			return storage.Bool(accept[cmp+1]), nil
		}
	case col.Kind() == storage.KindString && lit.Kind == storage.KindString:
		holds := make([]bool, len(col.Dict()))
		for k, s := range col.Dict() {
			holds[k] = accept[strings.Compare(s, lit.S)+1]
		}
		codes := col.Codes()
		return func(c *vctx) (storage.Value, error) {
			if nulls.Get(c.phys) {
				return storage.Null(), nil
			}
			return storage.Bool(holds[codes[c.phys]]), nil
		}
	}
	return nil
}

// compileBinary mirrors evalBinary: AND/OR short-circuit with SQL
// three-valued semantics, comparisons through Value.Compare,
// arithmetic through evalArith, LIKE through likeMatch.
func (vc *vcompiler) compileBinary(x *BinaryExpr) vkernel {
	lk := vc.compile(x.Left)
	rk := vc.compile(x.Right)
	op := x.Op
	switch op {
	case "AND":
		return func(c *vctx) (storage.Value, error) {
			l, err := lk(c)
			if err != nil {
				return storage.Null(), err
			}
			if !l.IsNull() && !isTrue(l) {
				return storage.Bool(false), nil
			}
			r, err := rk(c)
			if err != nil {
				return storage.Null(), err
			}
			if l.IsNull() || r.IsNull() {
				if !r.IsNull() && !isTrue(r) {
					return storage.Bool(false), nil
				}
				return storage.Null(), nil
			}
			return storage.Bool(isTrue(l) && isTrue(r)), nil
		}
	case "OR":
		return func(c *vctx) (storage.Value, error) {
			l, err := lk(c)
			if err != nil {
				return storage.Null(), err
			}
			if !l.IsNull() && isTrue(l) {
				return storage.Bool(true), nil
			}
			r, err := rk(c)
			if err != nil {
				return storage.Null(), err
			}
			if l.IsNull() || r.IsNull() {
				if !r.IsNull() && isTrue(r) {
					return storage.Bool(true), nil
				}
				return storage.Null(), nil
			}
			return storage.Bool(isTrue(l) || isTrue(r)), nil
		}
	case "=", "!=", "<", "<=", ">", ">=":
		if lit, ok := x.Right.(*Literal); ok {
			if col := vc.column(x.Left); col != nil {
				if k := compareKernel(col, op, lit.Val); k != nil {
					return k
				}
			}
		}
		return func(c *vctx) (storage.Value, error) {
			l, err := lk(c)
			if err != nil {
				return storage.Null(), err
			}
			r, err := rk(c)
			if err != nil {
				return storage.Null(), err
			}
			if l.IsNull() || r.IsNull() {
				return storage.Null(), nil
			}
			cmp, err := l.Compare(r)
			if err != nil {
				return storage.Null(), err
			}
			var b bool
			switch op {
			case "=":
				b = cmp == 0
			case "!=":
				b = cmp != 0
			case "<":
				b = cmp < 0
			case "<=":
				b = cmp <= 0
			case ">":
				b = cmp > 0
			case ">=":
				b = cmp >= 0
			}
			return storage.Bool(b), nil
		}
	case "+", "-", "*", "/", "%":
		return func(c *vctx) (storage.Value, error) {
			l, err := lk(c)
			if err != nil {
				return storage.Null(), err
			}
			r, err := rk(c)
			if err != nil {
				return storage.Null(), err
			}
			return evalArith(op, l, r)
		}
	case "LIKE":
		return func(c *vctx) (storage.Value, error) {
			l, err := lk(c)
			if err != nil {
				return storage.Null(), err
			}
			r, err := rk(c)
			if err != nil {
				return storage.Null(), err
			}
			if l.IsNull() || r.IsNull() {
				return storage.Null(), nil
			}
			if l.Kind != storage.KindString || r.Kind != storage.KindString {
				return storage.Null(), fmt.Errorf("sql: LIKE requires string operands")
			}
			return storage.Bool(likeMatch(l.S, r.S)), nil
		}
	default:
		return func(c *vctx) (storage.Value, error) {
			if _, err := lk(c); err != nil {
				return storage.Null(), err
			}
			if _, err := rk(c); err != nil {
				return storage.Null(), err
			}
			return storage.Null(), fmt.Errorf("sql: unknown operator %q", op)
		}
	}
}
