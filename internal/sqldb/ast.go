package sqldb

import (
	"fmt"
	"strings"

	"github.com/reliable-cda/cda/internal/storage"
)

// Expr is a SQL expression AST node. Render() re-serializes the node
// to SQL text — used by the explanation layer ("here is the code that
// produced this") and the NL2SQL equivalence checks.
type Expr interface {
	Render() string
}

// Literal is a constant value.
type Literal struct {
	Val storage.Value
}

// Render serializes the literal; strings are quoted with ” escaping.
func (l *Literal) Render() string {
	if l.Val.Kind == storage.KindString {
		return "'" + strings.ReplaceAll(l.Val.S, "'", "''") + "'"
	}
	return l.Val.String()
}

// ColumnRef references a column, optionally qualified by table alias.
type ColumnRef struct {
	Table  string // optional qualifier
	Column string
}

// Render serializes the reference.
func (c *ColumnRef) Render() string {
	if c.Table != "" {
		return c.Table + "." + c.Column
	}
	return c.Column
}

// Star is the bare `*` select item (and COUNT(*) argument).
type Star struct{}

// Render returns "*".
func (s *Star) Render() string { return "*" }

// BinaryExpr applies an infix operator: arithmetic (+ - * / %),
// comparison (= != < <= > >=), logic (AND OR), or LIKE.
type BinaryExpr struct {
	Op          string
	Left, Right Expr
}

// Render serializes with full parenthesization, which keeps
// re-parsing unambiguous.
func (b *BinaryExpr) Render() string {
	return "(" + b.Left.Render() + " " + b.Op + " " + b.Right.Render() + ")"
}

// UnaryExpr applies NOT or unary minus.
type UnaryExpr struct {
	Op   string // "NOT" or "-"
	Expr Expr
}

// Render serializes the operator prefix.
func (u *UnaryExpr) Render() string {
	if u.Op == "NOT" {
		return "(NOT " + u.Expr.Render() + ")"
	}
	return "(-" + u.Expr.Render() + ")"
}

// InExpr tests membership in a literal list, with optional negation.
type InExpr struct {
	Expr Expr
	List []Expr
	Not  bool
}

// Render serializes the IN list.
func (in *InExpr) Render() string {
	parts := make([]string, len(in.List))
	for i, e := range in.List {
		parts[i] = e.Render()
	}
	op := " IN ("
	if in.Not {
		op = " NOT IN ("
	}
	return "(" + in.Expr.Render() + op + strings.Join(parts, ", ") + "))"
}

// BetweenExpr tests lo <= expr <= hi, with optional negation.
type BetweenExpr struct {
	Expr   Expr
	Lo, Hi Expr
	Not    bool
}

// Render serializes the BETWEEN clause.
func (b *BetweenExpr) Render() string {
	op := " BETWEEN "
	if b.Not {
		op = " NOT BETWEEN "
	}
	return "(" + b.Expr.Render() + op + b.Lo.Render() + " AND " + b.Hi.Render() + ")"
}

// IsNullExpr tests for NULL, with optional negation.
type IsNullExpr struct {
	Expr Expr
	Not  bool
}

// Render serializes the IS [NOT] NULL test.
func (i *IsNullExpr) Render() string {
	if i.Not {
		return "(" + i.Expr.Render() + " IS NOT NULL)"
	}
	return "(" + i.Expr.Render() + " IS NULL)"
}

// FuncExpr is an aggregate call: COUNT/SUM/AVG/MIN/MAX. COUNT(*) has
// Arg == &Star{}. Distinct applies to COUNT(DISTINCT x).
type FuncExpr struct {
	Name     string // upper-case
	Arg      Expr
	Distinct bool
}

// Render serializes the call.
func (f *FuncExpr) Render() string {
	d := ""
	if f.Distinct {
		d = "DISTINCT "
	}
	return f.Name + "(" + d + f.Arg.Render() + ")"
}

// ScalarExpr is a scalar function call: LOWER, UPPER, LENGTH, ABS,
// ROUND, COALESCE.
type ScalarExpr struct {
	Name string // upper-case
	Args []Expr
}

// Render serializes the call.
func (s *ScalarExpr) Render() string {
	parts := make([]string, len(s.Args))
	for i, a := range s.Args {
		parts[i] = a.Render()
	}
	return s.Name + "(" + strings.Join(parts, ", ") + ")"
}

// SelectItem is one projection with an optional alias.
type SelectItem struct {
	Expr  Expr
	Alias string
}

// OutputName returns the column name the item produces.
func (s SelectItem) OutputName() string {
	if s.Alias != "" {
		return s.Alias
	}
	if c, ok := s.Expr.(*ColumnRef); ok {
		return c.Column
	}
	return s.Expr.Render()
}

// JoinClause is one JOIN ... ON ... segment. Only inner joins are
// planned; LEFT parses but falls back to inner semantics with a parse
// warning recorded on the statement.
type JoinClause struct {
	Table string
	Alias string
	On    Expr
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// SelectStmt is a parsed SELECT statement.
type SelectStmt struct {
	Distinct bool
	Items    []SelectItem
	SelStar  bool // SELECT * shortcut
	From     string
	FromAl   string
	Joins    []JoinClause
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
	Limit    int // -1 when absent
	Offset   int // 0 when absent
	Warnings []string
}

// Render re-serializes the statement to canonical SQL.
func (s *SelectStmt) Render() string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	if s.Distinct {
		sb.WriteString("DISTINCT ")
	}
	if s.SelStar {
		sb.WriteString("*")
	} else {
		for i, it := range s.Items {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(it.Expr.Render())
			if it.Alias != "" {
				sb.WriteString(" AS " + it.Alias)
			}
		}
	}
	sb.WriteString(" FROM " + s.From)
	if s.FromAl != "" && !strings.EqualFold(s.FromAl, s.From) {
		sb.WriteString(" " + s.FromAl)
	}
	for _, j := range s.Joins {
		sb.WriteString(" JOIN " + j.Table)
		if j.Alias != "" && !strings.EqualFold(j.Alias, j.Table) {
			sb.WriteString(" " + j.Alias)
		}
		sb.WriteString(" ON " + j.On.Render())
	}
	if s.Where != nil {
		sb.WriteString(" WHERE " + s.Where.Render())
	}
	if len(s.GroupBy) > 0 {
		keys := make([]string, len(s.GroupBy))
		for i, g := range s.GroupBy {
			keys[i] = g.Render()
		}
		sb.WriteString(" GROUP BY " + strings.Join(keys, ", "))
	}
	if s.Having != nil {
		sb.WriteString(" HAVING " + s.Having.Render())
	}
	if len(s.OrderBy) > 0 {
		keys := make([]string, len(s.OrderBy))
		for i, o := range s.OrderBy {
			keys[i] = o.Expr.Render()
			if o.Desc {
				keys[i] += " DESC"
			}
		}
		sb.WriteString(" ORDER BY " + strings.Join(keys, ", "))
	}
	if s.Limit >= 0 {
		sb.WriteString(fmt.Sprintf(" LIMIT %d", s.Limit))
	}
	if s.Offset > 0 {
		sb.WriteString(fmt.Sprintf(" OFFSET %d", s.Offset))
	}
	return sb.String()
}

// HasAggregates reports whether any select item or HAVING clause uses
// an aggregate function.
func (s *SelectStmt) HasAggregates() bool {
	for _, it := range s.Items {
		if containsAggregate(it.Expr) {
			return true
		}
	}
	return containsAggregate(s.Having)
}

// containsAggregate reports whether e holds an aggregate call.
func containsAggregate(e Expr) bool {
	if _, ok := e.(*FuncExpr); ok {
		return true
	}
	for _, c := range children(e) {
		if containsAggregate(c) {
			return true
		}
	}
	return false
}

// columnRefs collects every ColumnRef in the expression tree.
func columnRefs(e Expr, out *[]*ColumnRef) {
	if ref, ok := e.(*ColumnRef); ok {
		*out = append(*out, ref)
	}
	for _, c := range children(e) {
		columnRefs(c, out)
	}
}

// children returns e's operands in evaluation order, the order in
// which every evaluator visits them and so the order whose first error
// wins. Leaves (Literal, ColumnRef, Star), nil and node types this
// package does not define have none. Callers must not modify the
// slice: a ScalarExpr's is its Args.
func children(e Expr) []Expr {
	switch x := e.(type) {
	case *BinaryExpr:
		return []Expr{x.Left, x.Right}
	case *UnaryExpr:
		return []Expr{x.Expr}
	case *InExpr:
		return append([]Expr{x.Expr}, x.List...)
	case *BetweenExpr:
		return []Expr{x.Expr, x.Lo, x.Hi}
	case *IsNullExpr:
		return []Expr{x.Expr}
	case *FuncExpr:
		return []Expr{x.Arg}
	case *ScalarExpr:
		return x.Args
	default:
		return nil
	}
}

// withChildren returns a copy of e whose operands are kids, given in
// children's order; a node without operands is returned as it is.
func withChildren(e Expr, kids []Expr) Expr {
	switch x := e.(type) {
	case *BinaryExpr:
		return &BinaryExpr{Op: x.Op, Left: kids[0], Right: kids[1]}
	case *UnaryExpr:
		return &UnaryExpr{Op: x.Op, Expr: kids[0]}
	case *InExpr:
		return &InExpr{Expr: kids[0], List: kids[1:], Not: x.Not}
	case *BetweenExpr:
		return &BetweenExpr{Expr: kids[0], Lo: kids[1], Hi: kids[2], Not: x.Not}
	case *IsNullExpr:
		return &IsNullExpr{Expr: kids[0], Not: x.Not}
	case *FuncExpr:
		return &FuncExpr{Name: x.Name, Arg: kids[0], Distinct: x.Distinct}
	case *ScalarExpr:
		return &ScalarExpr{Name: x.Name, Args: kids}
	default:
		return e
	}
}
