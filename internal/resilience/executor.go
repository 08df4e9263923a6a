package resilience

import (
	"context"
	"sort"
	"sync"
)

// Executor is the per-system resilience front door: each backend call
// runs through its own circuit breaker, and transient failures are
// retried on the shared backoff schedule. Every breaker opens after
// DefaultFailureThreshold consecutive failures. One executor serves all
// backends of one System; breakers are created lazily per backend
// name. Safe for concurrent use.
type Executor struct {
	retrier *Retrier
	clock   Clock

	mu       sync.Mutex
	breakers map[string]*Breaker
}

// NewExecutor builds an executor. A nil clock falls back to a
// VirtualClock so everything stays deterministic by default.
func NewExecutor(clock Clock, seed int64) *Executor {
	if clock == nil {
		clock = NewVirtualClock()
	}
	return &Executor{
		retrier:  NewRetrier(clock, seed),
		clock:    clock,
		breakers: make(map[string]*Breaker),
	}
}

// Breaker returns (creating if needed) the named backend's breaker.
func (e *Executor) Breaker(backend string) *Breaker {
	e.mu.Lock()
	defer e.mu.Unlock()
	b, ok := e.breakers[backend]
	if !ok {
		b = NewBreaker(backend, DefaultFailureThreshold, e.clock)
		e.breakers[backend] = b
	}
	return b
}

// BreakerStates reports every known breaker's state, sorted by
// backend name (deterministic for logs and tests).
func (e *Executor) BreakerStates() map[string]BreakerState {
	e.mu.Lock()
	names := make([]string, 0, len(e.breakers))
	for name := range e.breakers {
		names = append(names, name)
	}
	e.mu.Unlock()
	sort.Strings(names)
	out := make(map[string]BreakerState, len(names))
	for _, name := range names {
		out[name] = e.Breaker(name).State()
	}
	return out
}

// Do runs op against the named backend: every attempt first consults
// the backend's circuit breaker, outcomes feed back into it, and
// transient errors are retried with backoff. An open circuit fails
// fast with an error wrapping ErrOpen (not transient), which is the
// signal for callers to walk the degradation ladder.
func (e *Executor) Do(ctx context.Context, backend string, op func() error) error {
	b := e.Breaker(backend)
	return e.retrier.Do(ctx, func() error {
		if err := b.Allow(); err != nil {
			return err // open circuit: permanent, degrade now
		}
		err := op()
		b.Record(err)
		return err
	})
}
