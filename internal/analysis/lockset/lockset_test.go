package lockset

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"

	"github.com/reliable-cda/cda/internal/analysis/flow"
)

// analyzeSrc type-checks one synthetic source file (stdlib imports
// allowed — the fixtures use sync) and runs the full lockset analysis
// over it.
func analyzeSrc(t *testing.T, src string) *Result {
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
	conf := types.Config{Importer: importer.Default()}
	pkg, err := conf.Check("fixture", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("type-checking fixture: %v", err)
	}
	u := &flow.Unit{Path: "fixture", Fset: fset, Files: []*ast.File{f}, Types: pkg, Info: info}
	return Analyze(flow.BuildGraph([]*flow.Unit{u}))
}

func TestSummariesExported(t *testing.T) {
	res := analyzeSrc(t, `package fixture

import "sync"

type gate struct {
	mu sync.Mutex
}

func (g *gate) lock()   { g.mu.Lock() }
func (g *gate) unlock() { g.mu.Unlock() }
func (g *gate) both()   { g.mu.Lock(); g.mu.Unlock() }
`)
	byName := map[string]*Summary{}
	for fn, sum := range res.Summaries {
		byName[fn.Name()] = sum
	}
	if len(byName["lock"].Acquires) != 1 || len(byName["lock"].Releases) != 0 {
		t.Errorf("lock summary = %+v, want one acquire", byName["lock"])
	}
	if len(byName["unlock"].Releases) != 1 || len(byName["unlock"].Acquires) != 0 {
		t.Errorf("unlock summary = %+v, want one release", byName["unlock"])
	}
	if len(byName["both"].Acquires) != 0 || len(byName["both"].Releases) != 0 {
		t.Errorf("both summary = %+v, want empty", byName["both"])
	}
}

// TestRelocks covers the re-acquisition events lock-flow formats.
func TestRelocks(t *testing.T) {
	const decl = `package fixture

import "sync"

type store struct {
	mu sync.RWMutex
	n  int
}

func (s *store) inc() { s.mu.Lock(); s.n++; s.mu.Unlock() }
func (s *store) get() int { s.mu.RLock(); defer s.mu.RUnlock(); return s.n }
`
	cases := []struct {
		name string
		src  string
		want []string // "caller>callee", or "caller" for a direct re-lock
	}{
		{"call under the lock", `
func (s *store) x() { s.mu.Lock(); defer s.mu.Unlock(); s.inc() }
`, []string{"x>inc"}},
		{"read inside read is tolerated, write inside read is not", `
func (s *store) x() int { s.mu.RLock(); defer s.mu.RUnlock(); return s.get() }
func (s *store) y() { s.mu.RLock(); defer s.mu.RUnlock(); s.inc() }
`, []string{"y>inc"}},
		{"direct", `
func (s *store) x() { s.mu.Lock(); s.mu.Lock() }
`, []string{"x"}},
		{"after the release", `
func (s *store) x() { s.mu.Lock(); s.n++; s.mu.Unlock(); s.inc() }
`, nil},
		{"held on one path only", `
func (s *store) x(b bool) { if b { s.mu.Lock() }; s.inc(); if b { s.mu.Unlock() } }
`, nil},
		{"held on both paths", `
func (s *store) x(b bool) { if b { s.mu.Lock() } else { s.mu.Lock() }; s.inc(); s.mu.Unlock() }
`, []string{"x>inc"}},
		{"a helper called under the lock reports once, at the caller", `
func (s *store) incLocked() { s.inc() }
func (s *store) x() { s.mu.Lock(); defer s.mu.Unlock(); s.incLocked() }
`, []string{"x>incLocked"}},
		{"through a lock() helper", `
func (s *store) lock() { s.mu.Lock() }
func (s *store) x() { s.lock(); s.inc(); s.mu.Unlock() }
`, []string{"x>inc"}},
		{"after an unlock() helper", `
func (s *store) lock() { s.mu.Lock() }
func (s *store) unlock() { s.mu.Unlock() }
func (s *store) x() { s.lock(); s.n++; s.unlock(); s.inc() }
func (s *store) y() { s.mu.Lock(); defer s.unlock(); s.inc() }
`, []string{"y>inc"}},
		{"through a parameter", `
func incVia(t *store) { t.inc() }
func (s *store) x() { s.mu.Lock(); defer s.mu.Unlock(); incVia(s) }
func (s *store) y(o *store) { s.mu.Lock(); defer s.mu.Unlock(); incVia(o) }
`, []string{"x>incVia"}},
		{"an interface call applies every implementation", `
type runner interface{ run(t *store) }
type idle struct{}
type busy struct{}
func (idle) run(t *store) {}
func (busy) run(t *store) { t.inc() }
func (s *store) x(r runner) { s.mu.Lock(); defer s.mu.Unlock(); r.run(s) }
`, []string{"x>run"}},
		{"a literal that runs elsewhere", `
func (s *store) x() func() { s.mu.Lock(); defer s.mu.Unlock(); return func() { s.inc() } }
func (s *store) y() { s.mu.Lock(); defer s.mu.Unlock(); go func() { s.inc() }() }
func (s *store) z() { s.mu.Lock(); defer s.mu.Unlock(); go s.inc() }
`, nil},
		{"a literal that runs here", `
func (s *store) x() { s.mu.Lock(); defer s.mu.Unlock(); func() { s.inc() }() }
`, []string{"x>inc"}},
		{"a literal passed to a call", `
func each(f func()) { f() }
func (s *store) x() { s.mu.Lock(); defer s.mu.Unlock(); each(func() { s.inc() }) }
`, []string{"x>inc"}},
		{"a spawned literal starts empty and reports its own region", `
func (s *store) x() { s.mu.Lock(); defer s.mu.Unlock(); go func() { s.mu.Lock(); defer s.mu.Unlock(); s.inc() }() }
`, []string{"x>inc"}},
		{"a deferred closure inherits the registration lockset", `
func (s *store) x() { s.mu.Lock(); defer func() { s.inc(); s.mu.Unlock() }(); s.n++ }
func (s *store) y() { s.mu.Lock(); defer func() { s.mu.Unlock(); s.inc() }(); s.n++ }
`, []string{"x>inc"}},
		{"deferred call under a deferred unlock", `
func (s *store) x() { s.mu.Lock(); defer s.mu.Unlock(); defer s.inc() }
func (s *store) y() { s.mu.Lock(); defer s.inc(); s.n++; s.mu.Unlock() }
`, []string{"x>inc"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := analyzeSrc(t, decl+tc.src)
			got := []string{}
			for _, r := range res.Relocks {
				s := res.funcAt(r).Name()
				if r.Callee != nil {
					s += ">" + r.Callee.Name()
				}
				if r.Lock != "s.mu" {
					s += "?" + r.Lock
				}
				got = append(got, s)
			}
			sort.Strings(got)
			if strings.Join(got, " ") != strings.Join(tc.want, " ") {
				t.Errorf("relocks = %v, want %v", got, tc.want)
			}
		})
	}
}

// funcAt finds the declared function a re-acquisition lies in.
func (res *Result) funcAt(r *Relock) *types.Func {
	for fn := range res.Summaries {
		if s := fn.Scope(); s != nil && s.Contains(r.Pos) {
			return fn
		}
	}
	return nil
}

// TestMayLockSummary pins Summary.Locks: transitive, with the mode, and
// without what runs elsewhere.
func TestMayLockSummary(t *testing.T) {
	res := analyzeSrc(t, `package fixture

import "sync"

type store struct {
	mu sync.RWMutex
	n  int
}

var global sync.Mutex

func (s *store) inc()          { s.mu.Lock(); s.n++; s.mu.Unlock() }
func (s *store) get() int      { s.mu.RLock(); defer s.mu.RUnlock(); return s.n }
func (s *store) both() int     { s.inc(); return s.get() }
func viaParam(x int, s *store) { s.inc() }
func viaGlobal()               { global.Lock(); global.Unlock() }
func hop()                     { viaGlobal() }
func elsewhere(s *store)       { go s.inc(); _ = func() { s.inc() } }
func local()                   { s := &store{}; s.inc() }
`)
	want := map[string]string{
		"inc":       "-1.mu=X",
		"get":       "-1.mu=S",
		"both":      "-1.mu=SX",
		"viaParam":  "1.mu=X",
		"viaGlobal": "global=X",
		"hop":       "global=X",
		"elsewhere": "",
		"local":     "",
	}
	for fn, sum := range res.Summaries {
		var parts []string
		for pt, mode := range sum.Locks {
			s := fmt.Sprintf("%d.%s=", pt.Idx, pt.Path)
			if pt.Idx == PointGlobal {
				s = pt.Obj.Name() + pt.Path + "="
			}
			if mode&Shared != 0 {
				s += "S"
			}
			if mode&Exclusive != 0 {
				s += "X"
			}
			parts = append(parts, s)
		}
		sort.Strings(parts)
		if got := strings.Join(parts, " "); got != want[fn.Name()] {
			t.Errorf("%s may lock %q, want %q", fn.Name(), got, want[fn.Name()])
		}
	}
}
