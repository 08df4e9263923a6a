package optimizer

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestCacheBasics(t *testing.T) {
	c := NewCache[int](2)
	if _, ok := c.Get("a"); ok {
		t.Error("empty cache hit")
	}
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Errorf("get a = %v %v", v, ok)
	}
	// Insert c: b is LRU (a was just touched) and must be evicted.
	c.Put("c", 3)
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("a should survive")
	}
	if c.Len() != 2 {
		t.Errorf("len = %d", c.Len())
	}
}

func TestCacheUpdateExisting(t *testing.T) {
	c := NewCache[int](2)
	c.Put("a", 1)
	c.Put("a", 9)
	if v, _ := c.Get("a"); v != 9 {
		t.Errorf("updated value = %v", v)
	}
	if c.Len() != 1 {
		t.Errorf("len = %d", c.Len())
	}
}

func TestCacheStatsAndHitRate(t *testing.T) {
	c := NewCache[int](2)
	c.Put("a", 1)
	c.Get("a")
	c.Get("missing")
	h, m := c.Stats()
	if h != 1 || m != 1 {
		t.Errorf("stats = %d %d", h, m)
	}
	if c.HitRate() != 0.5 {
		t.Errorf("hit rate = %v", c.HitRate())
	}
	empty := NewCache[int](1)
	if empty.HitRate() != 0 {
		t.Error("empty hit rate != 0")
	}
}

func TestCacheMinimumCapacity(t *testing.T) {
	c := NewCache[int](0)
	c.Put("a", 1)
	c.Put("b", 2)
	if c.Len() != 1 {
		t.Errorf("len = %d", c.Len())
	}
}

func TestCacheConcurrent(t *testing.T) {
	c := NewCache[int](64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := string(rune('a' + (g+i)%26))
				c.Put(key, i)
				c.Get(key)
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 64 {
		t.Errorf("len = %d exceeds capacity", c.Len())
	}
}

func TestBatcher(t *testing.T) {
	var batches [][]int
	b := &Batcher[int]{Size: 3, Sink: func(batch []int) {
		cp := append([]int{}, batch...)
		batches = append(batches, cp)
	}}
	for i := 1; i <= 7; i++ {
		b.Add(i)
	}
	if len(batches) != 2 {
		t.Fatalf("batches = %v", batches)
	}
	b.Flush()
	if len(batches) != 3 || len(batches[2]) != 1 {
		t.Errorf("after flush = %v", batches)
	}
	if b.Batches() != 3 {
		t.Errorf("count = %d", b.Batches())
	}
	b.Flush() // empty flush is a no-op
	if b.Batches() != 3 {
		t.Error("empty flush counted")
	}
}

// TestDoComputesOnce: under a concurrent stampede on one key, the
// compute runs exactly once — callers either lead, join the flight,
// or hit the freshly cached value.
func TestDoComputesOnce(t *testing.T) {
	c := NewCache[int](4)
	var calls atomic.Int32
	compute := func() (int, bool, error) {
		calls.Add(1)
		return 7, true, nil
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := c.Do(context.Background(), "key", compute)
			if err != nil || v != 7 {
				t.Errorf("do = %v %v", v, err)
			}
		}()
	}
	wg.Wait()
	if calls.Load() != 1 {
		t.Errorf("compute ran %d times", calls.Load())
	}
	if v, ok := c.Get("key"); !ok || v != 7 {
		t.Errorf("value not cached: %v %v", v, ok)
	}
}

// TestDoSharesErrorWithWaiters: waiters that joined the flight get
// the leader's error without computing, but the error is not cached —
// the next call retries.
func TestDoSharesErrorWithWaiters(t *testing.T) {
	c := NewCache[int](4)
	boom := errors.New("boom")
	var calls atomic.Int32
	entered := make(chan struct{})
	release := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		_, err := c.Do(context.Background(), "k", func() (int, bool, error) {
			calls.Add(1)
			close(entered)
			<-release
			return 0, false, boom
		})
		if !errors.Is(err, boom) {
			t.Errorf("leader err = %v", err)
		}
	}()
	<-entered // the flight is registered; joiners now must wait
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := c.Do(context.Background(), "k", func() (int, bool, error) {
				calls.Add(1)
				return 0, false, nil
			})
			if !errors.Is(err, boom) {
				t.Errorf("waiter err = %v", err)
			}
		}()
	}
	for c.Deduped() < 8 { // wait for all 8 to join the flight
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	<-leaderDone
	if calls.Load() != 1 {
		t.Errorf("compute ran %d times", calls.Load())
	}
	if _, ok := c.Get("k"); ok {
		t.Error("error result cached")
	}
	// The error was not cached: a later call retries.
	v, err := c.Do(context.Background(), "k", func() (int, bool, error) { return 5, true, nil })
	if err != nil || v != 5 {
		t.Errorf("retry = %v %v", v, err)
	}
}

// TestDoNonCacheableNotShared: when the leader reports store=false
// with no error, its result is caller-specific — waiters run their
// own compute and nothing lands in the cache.
func TestDoNonCacheableNotShared(t *testing.T) {
	c := NewCache[int](4)
	entered := make(chan struct{})
	release := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		v, err := c.Do(context.Background(), "k", func() (int, bool, error) {
			close(entered)
			<-release
			return 1, false, nil
		})
		if err != nil || v != 1 {
			t.Errorf("leader = %v %v", v, err)
		}
	}()
	<-entered
	var wg sync.WaitGroup
	var waiterCalls atomic.Int32
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := c.Do(context.Background(), "k", func() (int, bool, error) {
				waiterCalls.Add(1)
				return 2, false, nil
			})
			if err != nil || v != 2 {
				t.Errorf("waiter = %v %v", v, err)
			}
		}()
	}
	for c.Deduped() < 4 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	<-leaderDone
	if waiterCalls.Load() != 4 {
		t.Errorf("waiters computed %d times, want 4", waiterCalls.Load())
	}
	if c.Len() != 0 {
		t.Errorf("non-cacheable result stored; len = %d", c.Len())
	}
}

func TestDoDistinctKeys(t *testing.T) {
	c := NewCache[string](4)
	a, _ := c.Do(context.Background(), "a", func() (string, bool, error) { return "A", true, nil })
	b, _ := c.Do(context.Background(), "b", func() (string, bool, error) { return "B", true, nil })
	if a != "A" || b != "B" {
		t.Errorf("values = %q %q", a, b)
	}
	if c.Deduped() != 0 {
		t.Errorf("deduped = %d, want 0", c.Deduped())
	}
}
