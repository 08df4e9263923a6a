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
// allowed — the fixtures use sync and sync/atomic) and runs the full
// lockset analysis over it.
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

// groupByPath finds the group for a field path on any type.
func groupByPath(t *testing.T, res *Result, path string) *Group {
	t.Helper()
	for _, g := range res.Groups {
		if g.Key.Path == path {
			return g
		}
	}
	var have []string
	for _, g := range res.Groups {
		have = append(have, g.Key.Type+"."+g.Key.Path)
	}
	t.Fatalf("no group with path %q; have %v", path, have)
	return nil
}

// describe renders a group's accesses compactly for assertions:
// "r12" = read at line 12 guarded, "W7!" = write at line 7 unguarded.
func describe(res *Result, g *Group, fset *token.FileSet) string {
	var parts []string
	for _, a := range g.Accesses {
		c := "r"
		if a.Write {
			c = "W"
		}
		s := fmt.Sprintf("%s%d", c, fset.Position(a.Pos).Line)
		if g.Guard != "" && !a.Held[g.Guard] {
			s += "!"
		}
		parts = append(parts, s)
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}

func TestGuardInferenceBasic(t *testing.T) {
	res := analyzeSrc(t, `package fixture

import "sync"

type counter struct {
	mu sync.Mutex
	n  int
}

func (c *counter) inc() {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}

func (c *counter) get() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

func (c *counter) double() {
	c.mu.Lock()
	c.n = c.n * 2
	c.mu.Unlock()
}

func (c *counter) peek() int {
	return c.n // racy
}
`)
	g := groupByPath(t, res, "n")
	if g.Guard != "mu" {
		t.Fatalf("guard = %q, want mu (accesses: %d, guarded: %d)", g.Guard, len(g.Accesses), g.Guarded)
	}
	unguarded := 0
	for _, a := range g.Accesses {
		if !a.Held[g.Guard] {
			unguarded++
			if a.Write {
				t.Errorf("unguarded access at %v should be the peek read", a.Pos)
			}
		}
	}
	if unguarded != 1 {
		t.Errorf("unguarded accesses = %d, want 1 (the peek)", unguarded)
	}
}

func TestInterproceduralLockHelpers(t *testing.T) {
	res := analyzeSrc(t, `package fixture

import "sync"

type store struct {
	mu    sync.Mutex
	items map[string]int
}

func (s *store) lock()   { s.mu.Lock() }
func (s *store) unlock() { s.mu.Unlock() }

func (s *store) put(k string, v int) {
	s.lock()
	s.items[k] = v
	s.unlock()
}

func (s *store) get(k string) int {
	s.lock()
	defer s.unlock()
	return s.items[k]
}

func (s *store) size() int {
	s.lock()
	n := len(s.items)
	s.unlock()
	return n
}

func (s *store) raw() map[string]int {
	return s.items // racy AND escapes
}
`)
	g := groupByPath(t, res, "items")
	if g.Guard != "mu" {
		t.Fatalf("guard through lock()/unlock() helpers = %q, want mu (guarded %d of %d)",
			g.Guard, g.Guarded, len(g.Accesses))
	}
	if g.Guarded != len(g.Accesses)-1 {
		t.Errorf("guarded = %d, want %d", g.Guarded, len(g.Accesses)-1)
	}
	if !g.Ref {
		t.Errorf("map field should be Ref")
	}
	escapes := 0
	for _, a := range g.Accesses {
		if a.Escape == EscapeReturn && !a.Held[g.Guard] {
			escapes++
		}
	}
	if escapes != 1 {
		t.Errorf("unguarded escaping returns = %d, want 1", escapes)
	}
}

func TestGoroutineSpawnClearsLockset(t *testing.T) {
	res := analyzeSrc(t, `package fixture

import "sync"

type pool struct {
	mu   sync.Mutex
	jobs []string
}

func (p *pool) run(done chan struct{}) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.jobs = append(p.jobs, "a")
	p.jobs = append(p.jobs, "b")
	if len(p.jobs) > 0 {
		p.jobs = p.jobs[1:]
	}
	go func() {
		p.jobs = nil // spawned: lockset must be empty here
		close(done)
	}()
}
`)
	g := groupByPath(t, res, "jobs")
	if g.Guard != "mu" {
		t.Fatalf("guard = %q, want mu", g.Guard)
	}
	unguarded := 0
	for _, a := range g.Accesses {
		if !a.Held["mu"] {
			unguarded++
		}
	}
	if unguarded != 1 {
		fset := g.Accesses[0].Unit.Fset
		t.Errorf("unguarded = %d, want exactly 1 (inside the go literal); %s",
			unguarded, describe(res, g, fset))
	}
}

func TestDeferredClosureInheritsLockset(t *testing.T) {
	res := analyzeSrc(t, `package fixture

import "sync"

type box struct {
	mu  sync.Mutex
	val int
}

func (b *box) set(v int) {
	b.mu.Lock()
	b.val = v
	b.mu.Unlock()
}

func (b *box) swap(v int) (old int) {
	b.mu.Lock()
	defer func() {
		b.val = v // deferred closure: still under mu
		b.mu.Unlock()
	}()
	return b.val
}

func (b *box) bump() {
	b.mu.Lock()
	b.val++
	b.mu.Unlock()
}
`)
	g := groupByPath(t, res, "val")
	if g.Guard != "mu" {
		t.Fatalf("guard = %q, want mu", g.Guard)
	}
	for _, a := range g.Accesses {
		if !a.Held["mu"] {
			t.Errorf("access at offset %d not under mu; all should be guarded", a.Pos)
		}
	}
}

func TestAtomicAndPlainMix(t *testing.T) {
	res := analyzeSrc(t, `package fixture

import "sync/atomic"

type stats struct {
	hits int64
}

func (s *stats) hit()         { atomic.AddInt64(&s.hits, 1) }
func (s *stats) load() int64  { return atomic.LoadInt64(&s.hits) }
func (s *stats) reset()       { s.hits = 0 } // plain write mixing with atomics
`)
	g := groupByPath(t, res, "hits")
	if len(g.Atomics) != 2 {
		t.Errorf("atomic accesses = %d, want 2", len(g.Atomics))
	}
	if len(g.Accesses) != 1 || !g.Accesses[0].Write {
		t.Errorf("plain accesses = %d (want 1 write)", len(g.Accesses))
	}
}

func TestFreshLocalsExcluded(t *testing.T) {
	res := analyzeSrc(t, `package fixture

import "sync"

type thing struct {
	mu sync.Mutex
	v  int
}

func newThing() *thing {
	t := &thing{}
	t.v = 1 // pre-publication: must not count
	t.v = 2
	t.v = 3
	return t
}

func (t *thing) set(v int) {
	t.mu.Lock()
	t.v = v
	t.mu.Unlock()
}

func (t *thing) get() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.v
}
`)
	g := groupByPath(t, res, "v")
	if len(g.Accesses) != 2 {
		t.Fatalf("accesses = %d, want 2 (constructor writes excluded)", len(g.Accesses))
	}
	if g.Guard != "mu" {
		t.Errorf("guard = %q, want mu", g.Guard)
	}
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

func TestBranchMustIntersection(t *testing.T) {
	res := analyzeSrc(t, `package fixture

import "sync"

type cond struct {
	mu sync.Mutex
	x  int
}

func (c *cond) maybe(lock bool) {
	if lock {
		c.mu.Lock()
	}
	c.x = 1 // held on only one path: NOT guarded here
	if lock {
		c.mu.Unlock()
	}
}

func (c *cond) always() {
	c.mu.Lock()
	c.x = 2
	c.x = 3
	c.x = 4
	c.mu.Unlock()
}
`)
	g := groupByPath(t, res, "x")
	if g.Guard != "mu" {
		t.Fatalf("guard = %q, want mu", g.Guard)
	}
	unguarded := 0
	for _, a := range g.Accesses {
		if !a.Held["mu"] {
			unguarded++
		}
	}
	if unguarded != 1 {
		t.Errorf("unguarded = %d, want 1 (the maybe-locked write)", unguarded)
	}
}

func TestNoGuardWithoutMajority(t *testing.T) {
	res := analyzeSrc(t, `package fixture

import "sync"

type half struct {
	mu sync.Mutex
	y  int
}

func (h *half) a() { h.mu.Lock(); h.y = 1; h.mu.Unlock() }
func (h *half) b() { h.y = 2 }
func (h *half) c() { h.mu.Lock(); h.y = 3; h.mu.Unlock() }
func (h *half) d() { h.y = 4 }
`)
	g := groupByPath(t, res, "y")
	if g.Guard != "" {
		t.Errorf("guard = %q, want none (2 of 4 is below the 3/4 majority)", g.Guard)
	}
}

func TestEscapeToGoroutineArgs(t *testing.T) {
	res := analyzeSrc(t, `package fixture

import "sync"

type reg struct {
	mu    sync.Mutex
	order []int
}

func work(xs []int, done chan struct{}) { close(done) }

func (r *reg) add(v int) {
	r.mu.Lock()
	r.order = append(r.order, v)
	r.mu.Unlock()
}

func (r *reg) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.order)
}

func (r *reg) kick(done chan struct{}) {
	r.mu.Lock()
	defer r.mu.Unlock()
	go work(r.order, done) // slice escapes into the goroutine
}
`)
	g := groupByPath(t, res, "order")
	if g.Guard != "mu" {
		t.Fatalf("guard = %q, want mu", g.Guard)
	}
	goEsc := 0
	for _, a := range g.Accesses {
		if a.Escape == EscapeGo {
			goEsc++
		}
	}
	if goEsc != 1 {
		t.Errorf("EscapeGo accesses = %d, want 1", goEsc)
	}
}

// unguardedIn names the functions whose accesses to the field lack its
// inferred guard, sorted, one entry per access.
func unguardedIn(t *testing.T, res *Result, path string) []string {
	t.Helper()
	g := groupByPath(t, res, path)
	if g.Guard != "mu" {
		t.Fatalf("%s: guard = %q, want mu (guarded %d of %d)", path, g.Guard, g.Guarded, len(g.Accesses))
	}
	out := []string{}
	for _, a := range g.Accesses {
		if !a.Held[g.Guard] {
			out = append(out, a.Fn.Name())
		}
	}
	sort.Strings(out)
	return out
}

// TestCallerHoldsPrecondition covers the edges of the entry state a
// helper is analyzed with: the locks every one of its call sites holds,
// and nothing when a caller cannot be checked.
func TestCallerHoldsPrecondition(t *testing.T) {
	const decl = `package fixture

import "sync"

type store struct {
	mu sync.RWMutex
	n  int
}

func (s *store) a() { s.mu.Lock(); s.n++; s.mu.Unlock() }
func (s *store) b() { s.mu.Lock(); s.n++; s.mu.Unlock() }
func (s *store) c() { s.mu.Lock(); s.n++; s.mu.Unlock() }
`
	cases := []struct {
		name      string
		src       string
		unguarded []string
	}{
		{"every caller holds", `
func (s *store) bumpLocked() { s.n++ }
func (s *store) x() { s.mu.Lock(); s.bumpLocked(); s.mu.Unlock() }
func (s *store) y() { s.mu.Lock(); defer s.mu.Unlock(); s.bumpLocked() }
`, nil},
		{"one caller of three does not", `
func (s *store) bumpLocked() { s.n++ }
func (s *store) x() { s.mu.Lock(); s.bumpLocked(); s.mu.Unlock() }
func (s *store) y() { s.mu.Lock(); defer s.mu.Unlock(); s.bumpLocked() }
func (s *store) z() { s.bumpLocked() }
`, []string{"bumpLocked"}},
		{"helper calls helper under the same lock", `
func (s *store) outerLocked() { s.innerLocked() }
func (s *store) innerLocked() { s.n++ }
func (s *store) x() { s.mu.Lock(); s.outerLocked(); s.mu.Unlock() }
`, nil},
		{"exported method is not assumed", `
func (s *store) BumpLocked() { s.n++ }
func (s *store) x() { s.mu.Lock(); s.BumpLocked(); s.mu.Unlock() }
`, []string{"BumpLocked"}},
		{"method used as a value is not assumed", `
func (s *store) bumpLocked() { s.n++ }
func (s *store) each(f func()) { f() }
func (s *store) x() { s.mu.Lock(); s.bumpLocked(); s.each(s.bumpLocked); s.mu.Unlock() }
`, []string{"bumpLocked"}},
		{"interface-dispatch target is not assumed", `
type bumper interface{ bumpLocked() }
func (s *store) bumpLocked() { s.n++ }
func (s *store) x(b bumper) { s.mu.Lock(); b.bumpLocked(); s.bumpLocked(); s.mu.Unlock() }
`, []string{"bumpLocked"}},
		{"recursion keeps the empty entry", `
func (s *store) walkLocked(d int) { s.n++; if d > 0 { s.walkLocked(d - 1) } }
func (s *store) x() { s.mu.Lock(); s.walkLocked(3); s.mu.Unlock() }
`, []string{"walkLocked"}},
		{"RLock counts as held", `
func (s *store) peekLocked() int { return s.n }
func (s *store) x() int { s.mu.RLock(); defer s.mu.RUnlock(); return s.peekLocked() }
`, nil},
		{"go statement is a caller without the lock", `
func (s *store) bumpLocked() { s.n++ }
func (s *store) x() { s.mu.Lock(); go s.bumpLocked(); s.bumpLocked(); s.mu.Unlock() }
`, []string{"bumpLocked"}},
		{"deferred call holds what was deferred before it", `
func (s *store) bumpLocked() { s.n++ }
func (s *store) x() { s.mu.Lock(); defer s.mu.Unlock(); defer s.bumpLocked() }
`, nil},
		{"deferred call registered before the unlock runs after it", `
func (s *store) bumpLocked() { s.n++ }
func (s *store) x() { s.mu.Lock(); defer s.bumpLocked(); defer s.mu.Unlock() }
`, []string{"bumpLocked"}},
		{"call site on a fresh local is skipped, not counted unlocked", `
func (s *store) bumpLocked() { s.n++ }
func newStore() *store { s := &store{}; s.bumpLocked(); return s }
func (s *store) x() { s.mu.Lock(); s.bumpLocked(); s.mu.Unlock() }
`, nil},
		{"literal passed to a call inherits, its call site counts", `
func (s *store) bumpLocked() { s.n++ }
func each(f func()) { f() }
func (s *store) x() { s.mu.Lock(); each(func() { s.bumpLocked() }); s.mu.Unlock() }
`, nil},
		{"parameter point", `
func bumpLocked(s *store) { s.n++ }
func (s *store) x() { s.mu.Lock(); bumpLocked(s); s.mu.Unlock() }
`, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := unguardedIn(t, analyzeSrc(t, decl+tc.src), "n")
			if strings.Join(got, " ") != strings.Join(tc.unguarded, " ") {
				t.Errorf("unguarded accesses in %v, want %v", got, tc.unguarded)
			}
		})
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
		{"helper analyzed with mu held reports once, at the caller", `
func (s *store) incLocked() { s.inc() }
func (s *store) x() { s.mu.Lock(); defer s.mu.Unlock(); s.incLocked() }
`, []string{"x>incLocked"}},
		{"through a lock() helper", `
func (s *store) lock() { s.mu.Lock() }
func (s *store) x() { s.lock(); s.inc(); s.mu.Unlock() }
`, []string{"x>inc"}},
		{"a literal that runs elsewhere", `
func (s *store) x() func() { s.mu.Lock(); defer s.mu.Unlock(); return func() { s.inc() } }
func (s *store) y() { s.mu.Lock(); defer s.mu.Unlock(); go func() { s.inc() }() }
func (s *store) z() { s.mu.Lock(); defer s.mu.Unlock(); go s.inc() }
`, nil},
		{"a literal that runs here", `
func (s *store) x() { s.mu.Lock(); defer s.mu.Unlock(); func() { s.inc() }() }
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
