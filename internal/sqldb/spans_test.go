package sqldb

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
)

// recordSpans returns a scan for scanSpans that emits every position
// of its span and records the span, and a function that returns the
// recorded spans sorted by their start.
func recordSpans() (func(lo, hi int) ([]int, error), func() [][2]int) {
	var mu sync.Mutex
	var spans [][2]int
	scan := func(lo, hi int) ([]int, error) {
		mu.Lock()
		spans = append(spans, [2]int{lo, hi})
		mu.Unlock()
		out := make([]int, 0, hi-lo)
		for i := lo; i < hi; i++ {
			out = append(out, i)
		}
		return out, nil
	}
	sorted := func() [][2]int {
		mu.Lock()
		defer mu.Unlock()
		sort.Slice(spans, func(i, j int) bool { return spans[i][0] < spans[j][0] })
		return append([][2]int(nil), spans...)
	}
	return scan, sorted
}

// TestScanSpansCoverAndOrder: the spans are non-empty, contiguous and
// cover [0, n) — one span below filterSpanMin, one per GOMAXPROCS
// worker from it on — and their outputs come back in position order.
func TestScanSpansCoverAndOrder(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 10, 100, 1001, filterSpanMin - 1, filterSpanMin, filterSpanMin + 1, 4099} {
		for _, w := range []int{1, 2, 3, 4, 8, 200} {
			setProcs(t, w)
			scan, spans := recordSpans()
			got, err := scanSpans(n, scan)
			if err != nil {
				t.Fatal(err)
			}
			want := 1
			if n >= filterSpanMin {
				want = w
			}
			ss := spans()
			if len(ss) != want {
				t.Fatalf("n=%d procs=%d: %d spans, want %d", n, w, len(ss), want)
			}
			lo := 0
			for _, s := range ss {
				if s[0] != lo {
					t.Fatalf("n=%d procs=%d: gap at %d (got lo=%d)", n, w, lo, s[0])
				}
				if s[1] <= s[0] {
					t.Fatalf("n=%d procs=%d: empty span %v", n, w, s)
				}
				lo = s[1]
			}
			if lo != n {
				t.Fatalf("n=%d procs=%d: covers [0,%d), want [0,%d)", n, w, lo, n)
			}
			if len(got) != n {
				t.Fatalf("n=%d procs=%d: %d positions, want %d", n, w, len(got), n)
			}
			for i, p := range got {
				if p != i {
					t.Fatalf("n=%d procs=%d: position %d is %d", n, w, i, p)
				}
			}
		}
	}
}

// TestScanSpansDeterministic: the span boundaries are a function of n
// and GOMAXPROCS alone.
func TestScanSpansDeterministic(t *testing.T) {
	setProcs(t, 7)
	scanA, spansA := recordSpans()
	scanB, spansB := recordSpans()
	if _, err := scanSpans(10000, scanA); err != nil {
		t.Fatal(err)
	}
	if _, err := scanSpans(10000, scanB); err != nil {
		t.Fatal(err)
	}
	if a, b := spansA(), spansB(); !reflect.DeepEqual(a, b) {
		t.Fatalf("spans changed between calls:\n%v\n%v", a, b)
	}
}

func TestScanSpansComputesEveryIndex(t *testing.T) {
	setProcs(t, 8)
	const n = 10000
	out := make([]int, n)
	_, err := scanSpans(n, func(lo, hi int) ([]int, error) {
		for i := lo; i < hi; i++ {
			out[i] = i * i
		}
		return nil, nil
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

// TestScanSpansSerialFallback: below filterSpanMin the scan is one call
// over the whole range, however many workers GOMAXPROCS allows.
func TestScanSpansSerialFallback(t *testing.T) {
	setProcs(t, 8)
	for _, n := range []int{100, filterSpanMin - 1} {
		scan, spans := recordSpans()
		if _, err := scanSpans(n, scan); err != nil {
			t.Fatal(err)
		}
		if got, want := spans(), [][2]int{{0, n}}; !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d: spans %v, want %v", n, got, want)
		}
	}
}

func TestScanSpansFirstErrorWins(t *testing.T) {
	setProcs(t, 8)
	// Every span fails; the returned error must be the one a serial
	// left-to-right scan would have hit first, on every run.
	for trial := 0; trial < 20; trial++ {
		_, err := scanSpans(4000, func(lo, hi int) ([]int, error) {
			for i := lo; i < hi; i++ {
				if i >= 100 {
					return nil, fmt.Errorf("fail at %d", i)
				}
			}
			return nil, nil
		})
		if err == nil || err.Error() != "fail at 100" {
			t.Fatalf("trial %d: got %v, want fail at 100", trial, err)
		}
	}
}

// TestScanSpansOrderedMerge: the concatenated span outputs equal the
// serial output at every width.
func TestScanSpansOrderedMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	data := make([]int, 5000)
	for i := range data {
		data[i] = rng.Intn(1000)
	}
	var want []int
	for _, v := range data {
		if v%3 == 0 {
			want = append(want, v)
		}
	}
	for _, w := range []int{1, 2, 3, 4, 8} {
		setProcs(t, w)
		got, err := scanSpans(len(data), func(lo, hi int) ([]int, error) {
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
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("procs=%d: merged output differs from the serial one", w)
		}
	}
}

func TestScanSpansError(t *testing.T) {
	setProcs(t, 4)
	want := errors.New("boom")
	_, err := scanSpans(5000, func(lo, hi int) ([]int, error) {
		if lo == 0 {
			return nil, want
		}
		return make([]int, hi-lo), nil
	})
	if !errors.Is(err, want) {
		t.Fatalf("got %v, want %v", err, want)
	}
}

// TestScanSpansZeroN: an empty selection is scanned as an empty range
// and stays an empty, non-nil selection — a nil one would mean every
// row to vrel.
func TestScanSpansZeroN(t *testing.T) {
	setProcs(t, 8)
	scan, spans := recordSpans()
	got, err := scanSpans(0, scan)
	if err != nil || got == nil || len(got) != 0 {
		t.Fatalf("got %v, %v; want an empty non-nil selection", got, err)
	}
	for _, s := range spans() {
		if s[0] != s[1] {
			t.Fatalf("empty selection scanned span %v", s)
		}
	}
}
