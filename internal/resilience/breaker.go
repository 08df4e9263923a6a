package resilience

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrOpen is returned (wrapped) when a circuit breaker rejects a call
// without attempting it. It is never transient: an open circuit means
// the backend is known-bad and the caller should degrade immediately
// instead of queueing retries behind it.
var ErrOpen = errors.New("resilience: circuit open")

// BreakerState is the classic three-state circuit model.
type BreakerState int

// Breaker states.
const (
	// StateClosed passes calls through, counting consecutive failures.
	StateClosed BreakerState = iota
	// StateOpen rejects calls until the cool-down elapses.
	StateOpen
	// StateHalfOpen admits one probe call; its success closes the
	// circuit, its failure reopens it.
	StateHalfOpen
)

// String names the state.
func (s BreakerState) String() string {
	switch s {
	case StateOpen:
		return "open"
	case StateHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// DefaultFailureThreshold is the consecutive-failure count that opens
// a circuit when its builder names none.
const DefaultFailureThreshold = 5

// breakerOpenFor is the cool-down before an open circuit admits its
// one half-open probe.
const breakerOpenFor = time.Second

// Breaker is a per-backend circuit breaker on an injectable clock.
// Callers bracket each attempt with Allow/Record. Safe for concurrent
// use; the clock is read before the lock is taken so the mutex stays
// leaf-level.
type Breaker struct {
	name      string
	threshold int
	clock     Clock

	mu       sync.Mutex
	state    BreakerState
	failures int           // consecutive failures while closed
	probing  bool          // the half-open probe is in flight
	openedAt time.Duration // clock time the circuit last opened
}

// NewBreaker builds a breaker named for its backend that opens after
// threshold consecutive failures (DefaultFailureThreshold when
// threshold <= 0). A nil clock falls back to a VirtualClock.
func NewBreaker(name string, threshold int, clock Clock) *Breaker {
	if threshold <= 0 {
		threshold = DefaultFailureThreshold
	}
	if clock == nil {
		clock = NewVirtualClock()
	}
	return &Breaker{name: name, threshold: threshold, clock: clock}
}

// Name returns the backend name the breaker guards.
func (b *Breaker) Name() string { return b.name }

// State returns the current state (transitioning open → half-open if
// the cool-down has elapsed).
func (b *Breaker) State() BreakerState {
	now := b.clock.Now()
	b.mu.Lock()
	defer b.mu.Unlock()
	b.maybeHalfOpen(now)
	return b.state
}

// Allow reports whether a call may proceed. It returns nil to admit
// the call (the caller must pair it with Record) or an error wrapping
// ErrOpen when the circuit rejects it.
func (b *Breaker) Allow() error {
	now := b.clock.Now()
	b.mu.Lock()
	defer b.mu.Unlock()
	b.maybeHalfOpen(now)
	switch b.state {
	case StateOpen:
		return fmt.Errorf("%w: backend %s cooling down", ErrOpen, b.name)
	case StateHalfOpen:
		if b.probing {
			return fmt.Errorf("%w: backend %s probing", ErrOpen, b.name)
		}
		b.probing = true
		return nil
	default:
		return nil
	}
}

// Record reports the outcome of a call admitted by Allow. A nil err
// counts as success; context cancellation and deadline expiry carry
// no signal about backend health and only release the probe slot.
func (b *Breaker) Record(err error) {
	now := b.clock.Now()
	neutral := err != nil &&
		(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == StateHalfOpen {
		b.probing = false
	}
	if neutral {
		return
	}
	if err == nil {
		b.recordSuccess()
		return
	}
	b.recordFailure(now)
}

// recordSuccess handles a successful outcome. Caller holds the lock.
func (b *Breaker) recordSuccess() {
	switch b.state {
	case StateHalfOpen:
		b.reset()
	case StateClosed:
		b.failures = 0
	}
}

// recordFailure handles a failed outcome. Caller holds the lock.
func (b *Breaker) recordFailure(now time.Duration) {
	switch b.state {
	case StateHalfOpen:
		b.trip(now)
	case StateClosed:
		b.failures++
		if b.failures >= b.threshold {
			b.trip(now)
		}
	}
}

// maybeHalfOpen transitions open → half-open once the cool-down has
// elapsed. Caller holds the lock.
func (b *Breaker) maybeHalfOpen(now time.Duration) {
	if b.state == StateOpen && now-b.openedAt >= breakerOpenFor {
		b.state = StateHalfOpen
		b.probing = false
	}
}

// trip opens the circuit. Caller holds the lock.
func (b *Breaker) trip(now time.Duration) {
	b.state = StateOpen
	b.openedAt = now
	b.failures = 0
	b.probing = false
}

// reset closes the circuit. Caller holds the lock.
func (b *Breaker) reset() {
	b.state = StateClosed
	b.failures = 0
	b.probing = false
}
