package fixture

import "sync"

// queue exercises lock-flow where the lockset engine's must-lockset and
// caller-holds precondition meet: regions opened by a helper, helpers
// analyzed with the lock held, and closures that run later.
type queue struct {
	mu    sync.Mutex
	items []int
}

// push locks its receiver; safe on its own.
func (q *queue) push(v int) {
	q.mu.Lock()
	q.items = append(q.items, v)
	q.mu.Unlock()
}

// refillLocked's only caller holds q.mu, so it is analyzed with q.mu
// held — and calls push, which locks it. That is one deadlock and one
// finding, at the call that took the lock; nothing is reported here.
func (q *queue) refillLocked() {
	q.push(0)
}

// badRefill: the finding for refillLocked's re-acquisition.
func (q *queue) badRefill() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.refillLocked()
}

func (q *queue) lock()   { q.mu.Lock() }
func (q *queue) unlock() { q.mu.Unlock() }

// badHelperRegion: the region is opened by a lock() helper.
func (q *queue) badHelperRegion() {
	q.lock()
	q.push(1)
	q.unlock()
}

// goodAfterHelperRelease: the unlock() helper ends it.
func (q *queue) goodAfterHelperRelease() {
	q.lock()
	q.items = nil
	q.unlock()
	q.push(2)
}

// badDeferredCall: the deferred push runs before the deferred unlock.
func (q *queue) badDeferredCall() {
	q.mu.Lock()
	defer q.mu.Unlock()
	defer q.push(3)
}

// goodLater: the returned closure and the goroutine run after, or
// beside, the region; neither re-acquires anything.
func (q *queue) goodLater() func() {
	q.mu.Lock()
	defer q.mu.Unlock()
	go q.push(4)
	return func() { q.push(5) }
}

// goodOnePath: held on one path only is not held.
func (q *queue) goodOnePath(lock bool) {
	if lock {
		q.mu.Lock()
	}
	q.push(6)
	if lock {
		q.mu.Unlock()
	}
}
