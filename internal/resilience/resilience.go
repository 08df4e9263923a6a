// Package resilience provides the machinery that keeps the CDA
// pipeline reliably wrong-aware when backends fail (P4 Soundness):
// retries with capped exponential backoff and seeded jitter, per-
// backend circuit breakers with half-open probing, and context-based
// deadline/cancellation propagation. Every time-dependent behaviour
// runs on an injectable Clock so the chaos harness (internal/chaos)
// can sweep fault rates deterministically: same seed, same transcript,
// faults included.
package resilience

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// transientError marks an error as retryable. Backends (and the fault
// injector) wrap transient failures with MarkTransient; everything
// else is treated as permanent and fails fast.
type transientError struct{ err error }

func (e *transientError) Error() string { return "transient: " + e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

// MarkTransient wraps err so IsTransient reports true. A nil err
// returns nil.
func MarkTransient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err: err}
}

// IsTransient reports whether err (or anything it wraps) was marked
// transient. Context cancellation and deadline expiry are never
// transient: retrying a dead request wastes its caller's budget.
func IsTransient(err error) bool {
	if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var t *transientError
	return errors.As(err, &t)
}

// The retry schedule: 3 tries in all, the first retry after 10ms,
// each later delay doubled up to 500ms, and every delay
// equal-jittered (half fixed, half drawn from the seed).
const (
	retryAttempts  = 3
	retryBaseDelay = 10 * time.Millisecond
	retryMaxDelay  = 500 * time.Millisecond
)

// Retrier retries transient failures with capped exponential backoff
// and seeded equal-jitter, sleeping on the injected clock. Safe for
// concurrent use; the jitter stream is serialized by a mutex.
type Retrier struct {
	clock Clock

	mu  sync.Mutex
	rng *rand.Rand
}

// NewRetrier builds a retrier. A nil clock falls back to a
// VirtualClock (deterministic, non-blocking).
func NewRetrier(clock Clock, seed int64) *Retrier {
	if clock == nil {
		clock = NewVirtualClock()
	}
	return &Retrier{clock: clock, rng: rand.New(rand.NewSource(seed))}
}

// Do runs op, retrying transient errors until retryAttempts are
// spent, the error turns permanent, or ctx is done. The returned error is op's last error (or ctx.Err() when the wait
// was interrupted), so callers can classify it with IsTransient.
func (r *Retrier) Do(ctx context.Context, op func() error) error {
	var err error
	for attempt := 0; attempt < retryAttempts; attempt++ {
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		if err = op(); err == nil || !IsTransient(err) {
			return err
		}
		if attempt == retryAttempts-1 {
			break
		}
		if serr := r.clock.Sleep(ctx, r.backoff(attempt)); serr != nil {
			return serr
		}
	}
	return fmt.Errorf("resilience: %d attempts exhausted: %w", retryAttempts, err)
}

// backoff computes the equal-jitter delay for the given zero-based
// attempt: half the capped exponential delay is guaranteed, the other
// half is drawn from the seeded stream.
func (r *Retrier) backoff(attempt int) time.Duration {
	d := retryBaseDelay
	for i := 0; i < attempt && d < retryMaxDelay; i++ {
		d = min(2*d, retryMaxDelay)
	}
	r.mu.Lock()
	f := r.rng.Float64()
	r.mu.Unlock()
	return time.Duration(float64(d)/2 + f*float64(d)/2)
}
