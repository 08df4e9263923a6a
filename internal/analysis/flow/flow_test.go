package flow

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// loadUnit type-checks one synthetic source file into a Unit. The
// sources deliberately avoid imports so no importer is needed.
func loadUnit(t *testing.T, src string) *Unit {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fixture.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parsing fixture: %v", err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{}
	pkg, err := conf.Check("fixture", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("type-checking fixture: %v", err)
	}
	return &Unit{Path: "fixture", Fset: fset, Files: []*ast.File{f}, Types: pkg, Info: info}
}

// fnByName finds a graph node by its short name ("f", "T.m").
func fnByName(t *testing.T, g *Graph, name string) *types.Func {
	t.Helper()
	for fn := range g.Funcs {
		short := fn.Name()
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			rt := sig.Recv().Type()
			if p, ok := rt.(*types.Pointer); ok {
				rt = p.Elem()
			}
			if n, ok := rt.(*types.Named); ok {
				short = n.Obj().Name() + "." + fn.Name()
			}
		}
		if short == name {
			return fn
		}
	}
	t.Fatalf("function %q not found in graph", name)
	return nil
}

// edgesTo lists the callees of caller filtered by kind.
func edgesTo(g *Graph, caller *types.Func, kind EdgeKind) []string {
	var out []string
	for _, e := range g.Edges[caller] {
		if e.Kind == kind {
			out = append(out, e.Callee.Name())
		}
	}
	return out
}

func has(list []string, name string) bool {
	for _, n := range list {
		if n == name {
			return true
		}
	}
	return false
}

func TestCallGraphConstruction(t *testing.T) {
	cases := []struct {
		name   string
		src    string
		caller string
		callee string
		kind   EdgeKind
	}{
		{
			name: "static function call",
			src: `package fixture
func a() { b() }
func b() {}`,
			caller: "a", callee: "b", kind: EdgeStatic,
		},
		{
			name: "static method call",
			src: `package fixture
type T struct{}
func (t *T) m() {}
func a(t *T) { t.m() }`,
			caller: "a", callee: "m", kind: EdgeStatic,
		},
		{
			name: "interface dispatch",
			src: `package fixture
type I interface{ M() }
type T struct{}
func (T) M() {}
func a(i I) { i.M() }`,
			caller: "a", callee: "M", kind: EdgeInterface,
		},
		{
			name: "method value reference",
			src: `package fixture
type T struct{}
func (t *T) m() {}
func a(t *T) { f := t.m; _ = f }`,
			caller: "a", callee: "m", kind: EdgeRef,
		},
		{
			name: "function value reference",
			src: `package fixture
func b() {}
func a() { f := b; _ = f }`,
			caller: "a", callee: "b", kind: EdgeRef,
		},
		{
			name: "call inside closure folds into declarer",
			src: `package fixture
func b() {}
func a() { f := func() { b() }; f() }`,
			caller: "a", callee: "b", kind: EdgeStatic,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := BuildGraph([]*Unit{loadUnit(t, tc.src)})
			caller := fnByName(t, g, tc.caller)
			if got := edgesTo(g, caller, tc.kind); !has(got, tc.callee) {
				t.Errorf("edges(%s, kind=%d) = %v, want %q", tc.caller, tc.kind, got, tc.callee)
			}
		})
	}
}

func TestInterfaceImplResolution(t *testing.T) {
	src := `package fixture
type I interface{ M() }
type A struct{}
func (A) M() {}
type B struct{}
func (*B) M() {}
type C struct{}
func a(i I) { i.M() }`
	g := BuildGraph([]*Unit{loadUnit(t, src)})
	caller := fnByName(t, g, "a")
	var ifaceMethod *types.Func
	for _, e := range g.Edges[caller] {
		if e.Kind == EdgeInterface {
			ifaceMethod = e.Callee
		}
	}
	if ifaceMethod == nil {
		t.Fatal("no interface edge recorded")
	}
	impls := g.Impls[ifaceMethod]
	if len(impls) != 2 {
		t.Fatalf("Impls = %d methods, want 2 (A.M value receiver, B.M pointer receiver)", len(impls))
	}
	names := map[string]bool{}
	for _, m := range impls {
		sig := m.Type().(*types.Signature)
		rt := sig.Recv().Type()
		if p, ok := rt.(*types.Pointer); ok {
			rt = p.Elem()
		}
		names[rt.(*types.Named).Obj().Name()] = true
	}
	if !names["A"] || !names["B"] {
		t.Errorf("impl receivers = %v, want A and B", names)
	}
	// The reverse index must reach the implementations too.
	am := fnByName(t, g, "A.M")
	found := false
	for _, e := range g.Callers[am] {
		if e.Caller == caller {
			found = true
		}
	}
	if !found {
		t.Error("Callers[A.M] does not include the interface call site in a")
	}
}

func TestSummariesMutualRecursion(t *testing.T) {
	// f and g bounce the value between each other before returning
	// it; the fixed point must converge with ParamToReturn set on
	// both, and terminate.
	src := `package fixture
func f(x int, depth int) int {
	if depth > 0 {
		return g(x, depth-1)
	}
	return x
}
func g(x int, depth int) int {
	if depth > 0 {
		return f(x, depth-1)
	}
	return x
}
func opaque(x int) int { return 0 }
func h(x int) int { return opaque(1) }`
	g := BuildGraph([]*Unit{loadUnit(t, src)})
	sums := g.Summaries()
	for _, name := range []string{"f", "g"} {
		fn := fnByName(t, g, name)
		if !sums[fn].ParamToReturn[0] {
			t.Errorf("%s: ParamToReturn[0] = false, want true (mutual recursion)", name)
		}
	}
	// h's return derives from a constant through opaque, not from x.
	h := fnByName(t, g, "h")
	if sums[h].ParamToReturn[0] {
		t.Error("h: ParamToReturn[0] = true, but x never reaches the return")
	}
}

func TestSummariesMutableParamWriteback(t *testing.T) {
	src := `package fixture
func fill(dst *string, v string) { *dst = v }
func pure(v string) string { return v }`
	g := BuildGraph([]*Unit{loadUnit(t, src)})
	sums := g.Summaries()
	fill := fnByName(t, g, "fill")
	if !sums[fill].TaintsParam[0] {
		t.Error("fill: TaintsParam[0] = false, want true (*dst = v)")
	}
	pure := fnByName(t, g, "pure")
	if sums[pure].TaintsParam[0] {
		t.Error("pure: TaintsParam[0] = true, want false")
	}
}

func TestTaintPropagation(t *testing.T) {
	src := `package fixture
func source() string { return "secret" }
func wrap(s string) string { return s + "!" }
func tainted() string {
	v := source()
	return wrap(v)
}
func clean() string {
	return wrap("ok")
}
func launder(dst *string) {
	*dst = source()
}
func viaWriteback() string {
	var s string
	launder(&s)
	return s
}`
	g := BuildGraph([]*Unit{loadUnit(t, src)})
	taint := g.Propagate(func(fn *types.Func) bool { return fn.Name() == "source" })
	for name, want := range map[string]bool{
		"tainted":      true,
		"clean":        false, // wrap("ok") must not inherit taint from tainted()'s wrap(v)
		"viaWriteback": true,  // taint surfaces through launder's *dst write-back
		"source":       false, // sources taint call results in callers, not their own body
	} {
		fn := fnByName(t, g, name)
		if got := taint.ReturnTainted[fn]; got != want {
			t.Errorf("ReturnTainted[%s] = %v, want %v", name, got, want)
		}
	}
	// wrap's parameter receives tainted data from tainted(), but its
	// return stays argument-dependent: ReturnTainted must NOT flip, or
	// every caller of wrap would be poisoned by one tainted caller.
	wrap := fnByName(t, g, "wrap")
	if !taint.ParamTainted[wrap][0] {
		t.Error("ParamTainted[wrap][0] = false, want true (called with tainted v)")
	}
	if taint.ReturnTainted[wrap] {
		t.Error("ReturnTainted[wrap] = true, want false (taint is argument-dependent)")
	}
}

// TestDeterministicImplOrder guards the sort in resolveInterfaces:
// repeated builds must list implementations in the same order.
func TestDeterministicImplOrder(t *testing.T) {
	src := `package fixture
type I interface{ M() }
type A struct{}
func (A) M() {}
type B struct{}
func (B) M() {}
type C struct{}
func (C) M() {}
func a(i I) { i.M() }`
	var first string
	for i := 0; i < 5; i++ {
		g := BuildGraph([]*Unit{loadUnit(t, src)})
		caller := fnByName(t, g, "a")
		var im *types.Func
		for _, e := range g.Edges[caller] {
			if e.Kind == EdgeInterface {
				im = e.Callee
			}
		}
		var names []string
		for _, m := range g.Impls[im] {
			sig := m.Type().(*types.Signature)
			rt := sig.Recv().Type()
			names = append(names, rt.(*types.Named).Obj().Name())
		}
		order := strings.Join(names, ",")
		if i == 0 {
			first = order
			continue
		}
		if order != first {
			t.Fatalf("impl order changed between builds: %q vs %q", order, first)
		}
	}
}
