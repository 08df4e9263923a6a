package resilience

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestMarkTransient(t *testing.T) {
	if MarkTransient(nil) != nil {
		t.Fatal("MarkTransient(nil) must be nil")
	}
	base := errors.New("backend down")
	err := MarkTransient(base)
	if !IsTransient(err) {
		t.Fatal("marked error must be transient")
	}
	if !errors.Is(err, base) {
		t.Fatal("marking must preserve the error chain")
	}
	if IsTransient(base) {
		t.Fatal("unmarked error must not be transient")
	}
	if IsTransient(context.Canceled) || IsTransient(MarkTransient(context.Canceled)) {
		t.Fatal("context cancellation is never transient")
	}
}

func TestRetrierRetriesTransient(t *testing.T) {
	clock := NewVirtualClock()
	r := NewRetrier(clock, 7)
	calls := 0
	err := r.Do(context.Background(), func() error {
		calls++
		if calls < 3 {
			return MarkTransient(errors.New("flaky"))
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("want success after 3 calls, got err=%v calls=%d", err, calls)
	}
	if clock.Now() == 0 {
		t.Fatal("retries must have slept on the clock")
	}
}

func TestRetrierFailsFastOnPermanent(t *testing.T) {
	r := NewRetrier(NewVirtualClock(), 7)
	calls := 0
	perm := errors.New("schema mismatch")
	err := r.Do(context.Background(), func() error { calls++; return perm })
	if !errors.Is(err, perm) || calls != 1 {
		t.Fatalf("permanent error must not retry: err=%v calls=%d", err, calls)
	}
}

func TestRetrierExhaustsBudget(t *testing.T) {
	r := NewRetrier(NewVirtualClock(), 7)
	calls := 0
	flaky := errors.New("still down")
	err := r.Do(context.Background(), func() error { calls++; return MarkTransient(flaky) })
	if calls != 3 {
		t.Fatalf("want 3 attempts, got %d", calls)
	}
	if !errors.Is(err, flaky) {
		t.Fatalf("exhaustion must preserve the last error, got %v", err)
	}
}

func TestRetrierHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := NewRetrier(NewVirtualClock(), 7)
	err := r.Do(ctx, func() error { t.Fatal("op must not run on a dead context"); return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestRetrierBackoffDeterministic(t *testing.T) {
	seq := func() []time.Duration {
		r := NewRetrier(NewVirtualClock(), 99)
		var out []time.Duration
		for i := 0; i < 8; i++ {
			out = append(out, r.backoff(i))
		}
		return out
	}
	a, b := seq(), seq()
	// 10ms doubling, capped at 500ms; equal jitter keeps at least half.
	ms := time.Millisecond
	want := []time.Duration{10 * ms, 20 * ms, 40 * ms, 80 * ms, 160 * ms, 320 * ms, 500 * ms, 500 * ms}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed must give identical jitter: %v vs %v", a, b)
		}
		if a[i] < want[i]/2 || a[i] > want[i] {
			t.Fatalf("backoff %d out of [%v, %v]: %v", i, want[i]/2, want[i], a[i])
		}
	}
}

func TestBreakerLifecycle(t *testing.T) {
	clock := NewVirtualClock()
	b := NewBreaker("sqldb", 2, clock)
	fail := errors.New("boom")

	// Two consecutive failures trip the circuit.
	for i := 0; i < 2; i++ {
		if err := b.Allow(); err != nil {
			t.Fatalf("closed breaker must allow: %v", err)
		}
		b.Record(fail)
	}
	if b.State() != StateOpen {
		t.Fatalf("want open, got %v", b.State())
	}
	if err := b.Allow(); !errors.Is(err, ErrOpen) {
		t.Fatalf("open breaker must reject with ErrOpen, got %v", err)
	}

	// Cool-down elapses: half-open admits exactly one probe.
	clock.Advance(time.Second)
	if b.State() != StateHalfOpen {
		t.Fatalf("want half-open after cool-down, got %v", b.State())
	}
	if err := b.Allow(); err != nil {
		t.Fatalf("half-open must admit a probe: %v", err)
	}
	if err := b.Allow(); !errors.Is(err, ErrOpen) {
		t.Fatalf("second concurrent probe must be rejected, got %v", err)
	}

	// Probe failure reopens.
	b.Record(fail)
	if b.State() != StateOpen {
		t.Fatalf("failed probe must reopen, got %v", b.State())
	}

	// Probe success (after another cool-down) closes.
	clock.Advance(time.Second)
	if err := b.Allow(); err != nil {
		t.Fatalf("probe after second cool-down: %v", err)
	}
	b.Record(nil)
	if b.State() != StateClosed {
		t.Fatalf("successful probe must close, got %v", b.State())
	}
}

func TestBreakerIgnoresCancellation(t *testing.T) {
	b := NewBreaker("x", 1, NewVirtualClock())
	if err := b.Allow(); err != nil {
		t.Fatal(err)
	}
	b.Record(context.Canceled)
	if b.State() != StateClosed {
		t.Fatalf("cancellation must not trip the breaker, got %v", b.State())
	}
}

func TestExecutorOpensAndDegrades(t *testing.T) {
	clock := NewVirtualClock()
	ex := NewExecutor(clock, 1)
	calls := 0
	op := func() error { calls++; return MarkTransient(errors.New("down")) }

	// Two Do calls = 6 attempts > threshold 5: circuit opens mid-way.
	err1 := ex.Do(context.Background(), "vector", op)
	err2 := ex.Do(context.Background(), "vector", op)
	if err1 == nil || err2 == nil {
		t.Fatal("both calls must fail")
	}
	if ex.Breaker("vector").State() != StateOpen {
		t.Fatalf("breaker must be open, got %v", ex.Breaker("vector").State())
	}
	before := calls
	// Open circuit: fails fast without invoking the op, not transient.
	err3 := ex.Do(context.Background(), "vector", op)
	if !errors.Is(err3, ErrOpen) || calls != before {
		t.Fatalf("open circuit must fail fast: err=%v calls=%d→%d", err3, before, calls)
	}
	if IsTransient(err3) {
		t.Fatal("ErrOpen must not be transient")
	}

	// Other backends are unaffected.
	if err := ex.Do(context.Background(), "text", func() error { return nil }); err != nil {
		t.Fatalf("independent backend must pass: %v", err)
	}
	states := ex.BreakerStates()
	if states["vector"] != StateOpen || states["text"] != StateClosed {
		t.Fatalf("unexpected breaker states: %v", states)
	}
}

func TestWallClockSleepCancels(t *testing.T) {
	c := NewWallClock()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- c.Sleep(ctx, time.Hour) }()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Sleep did not return after cancellation")
	}
}

func TestVirtualClockAdvances(t *testing.T) {
	c := NewVirtualClock()
	if err := c.Sleep(context.Background(), 3*time.Second); err != nil {
		t.Fatal(err)
	}
	if c.Now() != 3*time.Second {
		t.Fatalf("want 3s, got %v", c.Now())
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.Sleep(ctx, time.Second); !errors.Is(err, context.Canceled) {
		t.Fatalf("dead context must interrupt virtual sleep, got %v", err)
	}
	if c.Now() != 3*time.Second {
		t.Fatal("interrupted sleep must not advance the clock")
	}
}
