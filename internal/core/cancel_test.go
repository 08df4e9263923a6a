package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/reliable-cda/cda/internal/faults"
	"github.com/reliable-cda/cda/internal/resilience"
)

// blockingClock parks every Sleep until the caller's context dies and
// signals when the first sleeper arrives — the deterministic way to
// catch Respond mid-retry without real timers.
type blockingClock struct {
	sleeping chan struct{}
}

func newBlockingClock() *blockingClock {
	return &blockingClock{sleeping: make(chan struct{}, 1)}
}

func (c *blockingClock) Now() time.Duration { return 0 }

func (c *blockingClock) Sleep(ctx context.Context, d time.Duration) error {
	select {
	case c.sleeping <- struct{}{}:
	default:
	}
	<-ctx.Done()
	return ctx.Err()
}

// TestCancelledRespondReturnsPromptly: cancelling an in-flight Respond
// surfaces context.Canceled as soon as the pipeline reaches its next
// cancellation point, and the session transcript gains no partial
// turn — the turn either fully happened or never happened.
func TestCancelledRespondReturnsPromptly(t *testing.T) {
	clock := newBlockingClock()
	inj := faults.New(faults.Config{Seed: 1, Default: faults.Rates{Error: 1}}, clock)
	s := swissSystem(t, func(cfg *Config) {
		cfg.Clock = clock
		cfg.Faults = inj
	})
	sess := s.NewSession()

	ctx, cancel := context.WithCancel(context.Background())
	type result struct {
		ans *Answer
		err error
	}
	done := make(chan result, 1)
	go func() {
		ans, err := s.Respond(ctx, sess, "how many employment where canton is Zurich")
		done <- result{ans, err}
	}()

	// The 100% error rate forces a retry; the retrier's backoff sleep
	// parks on the blocking clock, which tells us Respond is in
	// flight. Cancel it there.
	select {
	case <-clock.sleeping:
	case <-time.After(5 * time.Second):
		t.Fatal("Respond never reached the retry backoff")
	}
	cancel()

	select {
	case r := <-done:
		if !errors.Is(r.err, context.Canceled) {
			t.Fatalf("Respond after cancel: ans=%+v err=%v, want context.Canceled", r.ans, r.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Respond did not return promptly after cancellation")
	}
	if len(sess.Turns) != 0 {
		t.Fatalf("cancelled turn leaked into the transcript: %+v", sess.Turns)
	}
}

// TestDeadlineExceededPropagates: an already-expired deadline is
// reported as context.DeadlineExceeded, not absorbed by the
// degradation ladder — a timeout is not an outage.
func TestDeadlineExceededPropagates(t *testing.T) {
	s := swissSystem(t, nil)
	sess := s.NewSession()
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := s.Respond(ctx, sess, "how many employment"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Respond with expired deadline: %v, want context.DeadlineExceeded", err)
	}
	if len(sess.Turns) != 0 {
		t.Fatalf("expired turn leaked into the transcript: %+v", sess.Turns)
	}
}

// TestOpenBreakerFailsFastWithoutClockAdvance: once the nl2sql
// circuit opens, further queries degrade immediately without waiting
// on backoff — the fail-fast half of the resilience contract.
func TestOpenBreakerFailsFastWithoutClockAdvance(t *testing.T) {
	clock := resilience.NewVirtualClock()
	inj := faults.New(faults.Config{Seed: 1, Default: faults.Rates{Error: 1}}, clock)
	s := swissSystem(t, func(cfg *Config) {
		cfg.Clock = clock
		cfg.Faults = inj
	})
	sess := s.NewSession()
	// Drive the breaker open with repeated failing queries.
	for i := 0; i < 4; i++ {
		ans := respond(t, s, sess, "how many employment where canton is Zurich")
		if ans.Degraded == "" {
			t.Fatalf("query %d under 100%% faults was not degraded: %+v", i, ans)
		}
	}
	states := s.BreakerStates()
	if states["nl2sql"].String() != "open" {
		t.Fatalf("nl2sql breaker = %v, want open (states: %v)", states["nl2sql"], states)
	}
	before := clock.Now()
	ans := respond(t, s, sess, "how many employment where canton is Bern")
	if ans.Degraded == "" {
		t.Fatal("open breaker should force a degraded answer")
	}
	if clock.Now() != before {
		t.Fatalf("fail-fast path advanced the clock: %v -> %v", before, clock.Now())
	}
}
