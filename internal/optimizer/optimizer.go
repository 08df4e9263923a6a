// Package optimizer implements the paper's "holistic optimizer" for
// interactivity (P1): a result cache with LRU eviction and
// singleflight computation sharing, instrumented so E2/E4 can quantify
// the savings.
package optimizer

import (
	"container/list"
	"context"
	"sync"
)

// Cache is a thread-safe LRU result cache keyed by strings (typically
// canonical query texts) with singleflight semantics: concurrent
// misses on the same key share one computation instead of stampeding
// (see Do). The zero value is unusable; construct with NewCache.
type Cache[V any] struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recent
	items    map[string]*list.Element
	flights  map[string]*flight[V]
	hits     int64
	misses   int64
	deduped  int64
}

type entry[V any] struct {
	key string
	val V
}

// flight is one in-flight computation; waiters block on done.
type flight[V any] struct {
	done   chan struct{}
	val    V
	err    error
	shared bool // leader's outcome is valid for waiters
}

// NewCache creates a cache holding at most capacity entries
// (capacity < 1 is raised to 1).
func NewCache[V any](capacity int) *Cache[V] {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache[V]{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
		flights:  make(map[string]*flight[V]),
	}
}

// Get returns the cached value and whether it was present, promoting
// the entry on hit.
func (c *Cache[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		return el.Value.(entry[V]).val, true
	}
	c.misses++
	var zero V
	return zero, false
}

// Put stores a value, evicting the least-recently-used entry when
// full.
func (c *Cache[V]) Put(key string, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.putLocked(key, val)
}

func (c *Cache[V]) putLocked(key string, val V) {
	if el, ok := c.items[key]; ok {
		el.Value = entry[V]{key, val}
		c.ll.MoveToFront(el)
		return
	}
	if c.ll.Len() >= c.capacity {
		oldest := c.ll.Back()
		if oldest != nil {
			c.ll.Remove(oldest)
			delete(c.items, oldest.Value.(entry[V]).key)
		}
	}
	c.items[key] = c.ll.PushFront(entry[V]{key, val})
}

// Do returns the cached value for key or computes it with
// singleflight semantics: among concurrent callers missing the same
// key, exactly one (the leader) runs compute while the rest wait.
//
// compute reports (value, store, error). With store true the value is
// cached and handed to every waiter; errors are also handed to
// waiters (but never cached, so a later call retries). With store
// false and a nil error the result is treated as caller-specific —
// nothing is cached and each waiter runs its own compute once the
// leader finishes.
//
// A waiter whose ctx is done stops waiting and returns ctx.Err();
// the leader's flight still settles normally for the other waiters.
// The leader itself is responsible for honoring ctx inside compute —
// a leader that abandons the flight would strand its waiters.
func (c *Cache[V]) Do(ctx context.Context, key string, compute func() (V, bool, error)) (V, error) {
	v, hit, f, leader := c.lookup(key)
	if hit {
		return v, nil
	}
	if !leader {
		select {
		case <-f.done:
		case <-ctx.Done():
			var zero V
			return zero, ctx.Err()
		}
		if f.shared {
			return f.val, f.err
		}
		v, _, err := compute()
		return v, err
	}
	v, store, err := compute()
	c.settle(key, f, v, store, err)
	return v, err
}

// lookup consults the LRU and the flight table under one lock
// acquisition: a cache hit returns (v, true, nil, false); otherwise
// the caller either joins an existing flight (leader=false) or
// registers a new one it must settle (leader=true).
func (c *Cache[V]) lookup(key string) (v V, hit bool, f *flight[V], leader bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		return el.Value.(entry[V]).val, true, nil, false
	}
	c.misses++
	if f, ok := c.flights[key]; ok {
		c.deduped++
		return v, false, f, false
	}
	f = &flight[V]{done: make(chan struct{})}
	c.flights[key] = f
	return v, false, f, true
}

// settle publishes the leader's outcome to waiters and retires the
// flight, caching the value when compute asked for it.
func (c *Cache[V]) settle(key string, f *flight[V], v V, store bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f.val, f.err = v, err
	f.shared = store || err != nil
	if store && err == nil {
		c.putLocked(key, v)
	}
	delete(c.flights, key)
	close(f.done)
}

// Len returns the number of cached entries.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats returns cumulative hit/miss counts. A caller that joins
// another caller's in-flight computation counts as a miss (the value
// was not in the LRU); see Deduped for how many such joins occurred.
func (c *Cache[V]) Stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Deduped returns how many lookups joined an already-in-flight
// computation instead of starting their own — the work the
// singleflight layer saved from the thundering herd.
func (c *Cache[V]) Deduped() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.deduped
}

// HitRate returns hits/(hits+misses), 0 before any lookup.
func (c *Cache[V]) HitRate() float64 {
	h, m := c.Stats()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}
