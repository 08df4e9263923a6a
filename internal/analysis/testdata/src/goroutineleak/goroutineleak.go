// Package fixture is deliberately broken test input for the
// goroutine-leak analyzer: worker pools mirroring the parallel
// executor with completion signals deleted.
package fixture

import (
	"context"
	"sync"
)

// leakNoDone is the parallel worker pool with the defer wg.Done()
// deleted: Wait blocks forever.
func leakNoDone(jobs []int) {
	var wg sync.WaitGroup
	results := make([]int, len(jobs))
	for i := range jobs {
		wg.Add(1)
		go func(i int) { // flagged: no completion signal
			results[i] = jobs[i] * 2
		}(i)
	}
	wg.Wait()
}

// leakForever spins without a context bound or closable channel.
func leakForever(n *int) {
	go func() { // flagged: never terminates, not context-bounded
		for {
			*n++
		}
	}()
}

// leakBranchSkipsSend signals on one branch only.
func leakBranchSkipsSend(ch chan int, n int) {
	go func() { // flagged: the n <= 0 path finishes silently
		if n > 0 {
			ch <- n
		}
	}()
}

func goodDone(jobs []int) {
	var wg sync.WaitGroup
	results := make([]int, len(jobs))
	for i := range jobs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = jobs[i] * 2
		}(i)
	}
	wg.Wait()
}

func goodCtxBounded(ctx context.Context, ch chan int) {
	go func() {
		for {
			select {
			case <-ctx.Done():
				return
			case v := <-ch:
				_ = v
			}
		}
	}()
}

func goodRangeChannel(ch chan int, out chan int) {
	go func() {
		defer close(out)
		for v := range ch {
			out <- v
		}
	}()
}

func goodSendOnAllPaths(ch chan error, fail bool) {
	go func() {
		if fail {
			ch <- errFailed
			return
		}
		ch <- nil
	}()
}

var errFailed error

func suppressedDetached(logCh chan string) {
	// cdalint:ignore goroutine-leak -- fire-and-forget metrics flush
	go func() {
		flush(logCh)
	}()
}

func flush(ch chan string) {}
