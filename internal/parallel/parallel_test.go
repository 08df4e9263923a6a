package parallel

import (
	"errors"
	"fmt"
	"go/parser"
	"go/token"
	"io/fs"
	"math/rand"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
)

// TestImporters pins the package's call sites. Every fan-out costs a
// worker knob, a serial threshold and a serial-vs-parallel determinism
// suite, so a new one has to argue for itself by editing this list.
func TestImporters(t *testing.T) {
	want := []string{
		"internal/sqldb/exec.go",
		"internal/sqldb/vexec.go",
		"internal/vectorindex/ivf.go",
	}
	const (
		root       = "../.."
		importPath = `"github.com/reliable-cda/cda/internal/parallel"`
	)
	var got []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// bench/ is a module of its own; testdata holds fixtures.
			if name := d.Name(); name == "testdata" || name == "bench" || (path != root && strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if imp.Path.Value == importPath {
				rel, err := filepath.Rel(root, path)
				if err != nil {
					return err
				}
				got = append(got, filepath.ToSlash(rel))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(got)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("non-test importers of internal/parallel:\n got %v\nwant %v", got, want)
	}
}

func TestSpansCoverAndOrder(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 10, 100, 1001} {
		for _, w := range []int{1, 2, 3, 4, 8, 200} {
			spans := Spans(n, w)
			if len(spans) == 0 {
				t.Fatalf("Spans(%d,%d): empty", n, w)
			}
			if len(spans) > n {
				t.Fatalf("Spans(%d,%d): %d spans exceed n", n, w, len(spans))
			}
			lo := 0
			for _, s := range spans {
				if s.Lo != lo {
					t.Fatalf("Spans(%d,%d): gap at %d (got Lo=%d)", n, w, lo, s.Lo)
				}
				if s.Hi <= s.Lo {
					t.Fatalf("Spans(%d,%d): empty span %+v", n, w, s)
				}
				lo = s.Hi
			}
			if lo != n {
				t.Fatalf("Spans(%d,%d): covers [0,%d), want [0,%d)", n, w, lo, n)
			}
		}
	}
}

func TestSpansDeterministic(t *testing.T) {
	a := Spans(1000, 7)
	b := Spans(1000, 7)
	if len(a) != len(b) {
		t.Fatal("span count changed between calls")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("span %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestResolve(t *testing.T) {
	if got := Resolve(4, 2); got != 2 {
		t.Fatalf("Resolve(4,2) = %d, want clamp to 2", got)
	}
	if got := Resolve(0, 100); got < 1 {
		t.Fatalf("Resolve(0,100) = %d, want >= 1", got)
	}
	if got := Resolve(-3, 100); got < 1 {
		t.Fatalf("Resolve(-3,100) = %d, want >= 1", got)
	}
}

func TestDoComputesEveryIndex(t *testing.T) {
	const n = 10000
	out := make([]int, n)
	err := Do(n, Options{Workers: 8, SerialThreshold: 1}, func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			out[i] = i * i
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestDoSerialFallback(t *testing.T) {
	var calls atomic.Int32
	err := Do(100, Options{Workers: 8, SerialThreshold: 1000}, func(lo, hi int) error {
		calls.Add(1)
		if lo != 0 || hi != 100 {
			t.Errorf("serial fallback got chunk [%d,%d), want [0,100)", lo, hi)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 1 {
		t.Fatalf("serial fallback made %d calls, want 1", calls.Load())
	}
}

func TestDoFirstErrorWins(t *testing.T) {
	// Every chunk fails; the returned error must be the one a serial
	// left-to-right scan would have hit first, on every run.
	for trial := 0; trial < 20; trial++ {
		err := Do(1000, Options{Workers: 8, SerialThreshold: 1}, func(lo, hi int) error {
			for i := lo; i < hi; i++ {
				if i >= 100 {
					return fmt.Errorf("fail at %d", i)
				}
			}
			return nil
		})
		if err == nil || err.Error() != "fail at 100" {
			t.Fatalf("trial %d: got %v, want fail at 100", trial, err)
		}
	}
}

func TestMapChunksOrderedMerge(t *testing.T) {
	// Concatenated chunk outputs must equal the serial output for any
	// worker count.
	rng := rand.New(rand.NewSource(42))
	data := make([]int, 5000)
	for i := range data {
		data[i] = rng.Intn(1000)
	}
	serialOut := make([]int, 0, len(data))
	for _, v := range data {
		if v%3 == 0 {
			serialOut = append(serialOut, v)
		}
	}
	for _, w := range []int{1, 2, 3, 4, 8} {
		chunks, err := MapChunks(len(data), Options{Workers: w, SerialThreshold: 1}, func(lo, hi int) ([]int, error) {
			var out []int
			for i := lo; i < hi; i++ {
				if data[i]%3 == 0 {
					out = append(out, data[i])
				}
			}
			return out, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		var merged []int
		for _, c := range chunks {
			merged = append(merged, c...)
		}
		if len(merged) != len(serialOut) {
			t.Fatalf("workers=%d: %d results, want %d", w, len(merged), len(serialOut))
		}
		for i := range merged {
			if merged[i] != serialOut[i] {
				t.Fatalf("workers=%d: merged[%d] = %d, want %d", w, i, merged[i], serialOut[i])
			}
		}
	}
}

func TestMapChunksError(t *testing.T) {
	want := errors.New("boom")
	_, err := MapChunks(5000, Options{Workers: 4, SerialThreshold: 1}, func(lo, hi int) (int, error) {
		if lo == 0 {
			return 0, want
		}
		return hi - lo, nil
	})
	if !errors.Is(err, want) {
		t.Fatalf("got %v, want %v", err, want)
	}
}

func TestZeroAndNegativeN(t *testing.T) {
	if err := Do(0, Options{}, func(lo, hi int) error { t.Error("called"); return nil }); err != nil {
		t.Fatal(err)
	}
	out, err := MapChunks(-5, Options{}, func(lo, hi int) (int, error) { t.Error("called"); return 0, nil })
	if err != nil || out != nil {
		t.Fatalf("got %v, %v; want nil, nil", out, err)
	}
}
