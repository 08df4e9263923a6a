// Package parallel is the deterministic fan-out substrate of the
// computational infrastructure (layer ⓑ): chunked worker pools sized
// by GOMAXPROCS, ordered result merges, deterministic error
// aggregation, and a serial-fallback threshold so tiny inputs never
// pay goroutine overhead.
//
// The package exists to make "run it on all cores" a safe default for
// the paths that fan out (the columnar SQL operators and the IVF
// probe): every helper guarantees that
//
//   - chunk boundaries are a pure function of (n, workers), never of
//     scheduling;
//   - per-chunk results are merged in chunk order, so any caller that
//     appends chunk outputs in order reproduces the serial output
//     byte-for-byte;
//   - when several chunks fail, the error of the lowest-indexed chunk
//     is returned — the same error a serial left-to-right scan would
//     have surfaced first;
//   - inputs smaller than the serial threshold run inline on the
//     calling goroutine, so results cannot depend on whether the
//     parallel or serial path was taken.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultSerialThreshold is the input size below which the helpers run
// serially. Fanning out costs on the order of a few microseconds per
// goroutine; below roughly a thousand cheap items that overhead
// dominates the work itself.
const DefaultSerialThreshold = 1024

// Options configures a fan-out call site.
type Options struct {
	// Workers is the maximum number of concurrent goroutines.
	// 0 means runtime.GOMAXPROCS(0); 1 forces the serial path.
	Workers int
	// SerialThreshold is the input size below which the call runs
	// serially regardless of Workers (0 means
	// DefaultSerialThreshold). Set to 1 to force the parallel path
	// for any non-empty input (tests use this to exercise the
	// parallel code on small fixtures).
	SerialThreshold int
	// ChunkFactor oversubscribes the chunk count: the input is split
	// into Workers×ChunkFactor chunks consumed by exactly Workers
	// goroutines from a shared queue (0 or 1 = one chunk per worker,
	// the historical behavior). Oversubscription evens out skew —
	// when chunks carry unequal work (e.g. hash-join probes over
	// clustered keys), a stalled worker no longer leaves the rest
	// idle. Chunk boundaries remain a pure function of
	// (n, Workers×ChunkFactor) and results still merge in chunk
	// order, so outputs are byte-identical for any factor.
	ChunkFactor int
}

// Resolve returns the effective worker count: 0 maps to GOMAXPROCS
// and the result is clamped to [1, n] so no worker is ever idle by
// construction.
func Resolve(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

func (o Options) threshold() int {
	if o.SerialThreshold <= 0 {
		return DefaultSerialThreshold
	}
	return o.SerialThreshold
}

// serial reports whether an input of size n should run inline.
func (o Options) serial(n int) bool {
	return n < o.threshold() || Resolve(o.Workers, n) <= 1
}

// Span is one contiguous half-open chunk [Lo, Hi) of an input.
type Span struct{ Lo, Hi int }

// Spans splits [0, n) into at most `chunks` near-equal contiguous
// spans. The split depends only on (n, chunks): the first n%chunks
// spans are one element longer.
func Spans(n, chunks int) []Span {
	chunks = Resolve(chunks, n)
	out := make([]Span, 0, chunks)
	base := n / chunks
	extra := n % chunks
	lo := 0
	for c := 0; c < chunks; c++ {
		size := base
		if c < extra {
			size++
		}
		out = append(out, Span{Lo: lo, Hi: lo + size})
		lo += size
	}
	return out
}

// chunks returns the effective chunk count for an input of size n:
// Workers×ChunkFactor, clamped to n by Spans' own Resolve.
func (o Options) chunks(n int) int {
	w := Resolve(o.Workers, n)
	if o.ChunkFactor > 1 {
		return w * o.ChunkFactor
	}
	return w
}

// runChunks executes fn over the given spans using exactly `workers`
// goroutines pulling chunk indices from a shared atomic counter.
// Callers index their result/error slices by the chunk index fn
// receives, so the ordered-merge and lowest-indexed-chunk error
// contracts hold regardless of which worker ran which chunk.
func runChunks(spans []Span, workers int, fn func(i int, s Span)) {
	if workers > len(spans) {
		workers = len(spans)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(spans) {
					return
				}
				fn(i, spans[i])
			}
		}()
	}
	wg.Wait()
}

// Do runs fn over [0, n) in parallel chunks and waits for completion.
// Chunks must only write to disjoint state (typically out[i] for i in
// [lo, hi)). The error returned is the lowest-indexed chunk's error —
// identical to what a serial left-to-right run would surface first,
// because a serial scan stops at the first failing element.
func Do(n int, o Options, fn func(lo, hi int) error) error {
	if n <= 0 {
		return nil
	}
	if o.serial(n) {
		return fn(0, n)
	}
	spans := Spans(n, o.chunks(n))
	errs := make([]error, len(spans))
	runChunks(spans, Resolve(o.Workers, n), func(i int, s Span) {
		errs[i] = fn(s.Lo, s.Hi)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// MapChunks runs fn over [0, n) in parallel chunks and returns the
// per-chunk results in chunk order. Callers that concatenate the
// results reproduce the serial output exactly, because the serial
// path is a single chunk [0, n) and chunk outputs are contiguous,
// in-order slices of it. On error the lowest-indexed chunk's error is
// returned and the results are nil.
func MapChunks[T any](n int, o Options, fn func(lo, hi int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	if o.serial(n) {
		v, err := fn(0, n)
		if err != nil {
			return nil, err
		}
		return []T{v}, nil
	}
	spans := Spans(n, o.chunks(n))
	results := make([]T, len(spans))
	errs := make([]error, len(spans))
	runChunks(spans, Resolve(o.Workers, n), func(i int, s Span) {
		results[i], errs[i] = fn(s.Lo, s.Hi)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}
