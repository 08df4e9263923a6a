package admission

import (
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/reliable-cda/cda/internal/resilience"
)

func TestInflightBound(t *testing.T) {
	c := New(Config{Shards: 1, MaxInflight: 2})
	rel1, err := c.Admit(0)
	if err != nil {
		t.Fatal(err)
	}
	rel2, err := c.Admit(0)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Admit(0)
	var ov *Overload
	if !errors.As(err, &ov) {
		t.Fatalf("third admit = %v, want *Overload", err)
	}
	if ov.Reason != "inflight" || ov.RetryAfter <= 0 {
		t.Fatalf("overload = %+v", ov)
	}
	// Already-admitted work completes and frees its slot.
	rel1()
	rel1() // idempotent
	if got := c.Inflight(0); got != 1 {
		t.Fatalf("inflight after release = %d", got)
	}
	rel3, err := c.Admit(0)
	if err != nil {
		t.Fatalf("admit after release = %v", err)
	}
	rel3()
	rel2()
	if got := c.Inflight(0); got != 0 {
		t.Fatalf("inflight after all releases = %d", got)
	}
}

func TestTokenBucketOnVirtualClock(t *testing.T) {
	clock := resilience.NewVirtualClock()
	c := New(Config{Shards: 1, Rate: 2, Burst: 1, Clock: clock})
	rel, err := c.Admit(0)
	if err != nil {
		t.Fatal(err)
	}
	rel()
	// Bucket empty: the shed decision names the refill time exactly
	// (rate 2/s -> half a second per token).
	_, err = c.Admit(0)
	var ov *Overload
	if !errors.As(err, &ov) {
		t.Fatalf("admit on empty bucket = %v", err)
	}
	if ov.Reason != "rate" || ov.RetryAfter != 500*time.Millisecond {
		t.Fatalf("overload = %+v, want rate / 500ms", ov)
	}
	clock.Advance(250 * time.Millisecond)
	if _, err := c.Admit(0); err == nil {
		t.Fatal("quarter-second refill must not admit at rate 2/s")
	}
	clock.Advance(250 * time.Millisecond)
	rel2, err := c.Admit(0)
	if err != nil {
		t.Fatalf("admit after full refill = %v", err)
	}
	rel2()
	// Burst caps accumulation: a long idle period buys Burst tokens,
	// not unlimited ones.
	clock.Advance(time.Hour)
	rel3, err := c.Admit(0)
	if err != nil {
		t.Fatal(err)
	}
	rel3()
	if _, err := c.Admit(0); err == nil {
		t.Fatal("burst=1 must not bank more than one token")
	}
}

func TestShardsIndependent(t *testing.T) {
	c := New(Config{Shards: 4, MaxInflight: 1})
	rel, err := c.Admit(0)
	if err != nil {
		t.Fatal(err)
	}
	defer rel()
	if _, err := c.Admit(0); err == nil {
		t.Fatal("shard 0 must be full")
	}
	for shard := 1; shard < 4; shard++ {
		r, err := c.Admit(shard)
		if err != nil {
			t.Fatalf("shard %d rejected while only shard 0 is loaded: %v", shard, err)
		}
		r()
	}
}

func TestDefaultsAndRounding(t *testing.T) {
	c := New(Config{Shards: 5})
	if len(c.gates) != 8 {
		t.Fatalf("shards = %d, want 8", len(c.gates))
	}
	// Out-of-range shard indexes mask into range rather than panic.
	rel, err := c.Admit(1337)
	if err != nil {
		t.Fatal(err)
	}
	rel()
}

func TestRetryAfterSeconds(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{0, "1"},
		{10 * time.Millisecond, "1"},
		{time.Second, "1"},
		{1100 * time.Millisecond, "2"},
		{30 * time.Second, "30"},
	}
	for _, tc := range cases {
		if got := RetryAfterSeconds(tc.d); got != tc.want {
			t.Errorf("RetryAfterSeconds(%v) = %q, want %q", tc.d, got, tc.want)
		}
	}
}

func TestConcurrentAdmitNeverExceedsBound(t *testing.T) {
	const bound = 4
	c := New(Config{Shards: 1, MaxInflight: bound})
	var wg sync.WaitGroup
	var mu sync.Mutex
	peak := 0
	held := 0
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				rel, err := c.Admit(0)
				if err != nil {
					continue
				}
				mu.Lock()
				held++
				if held > peak {
					peak = held
				}
				mu.Unlock()
				mu.Lock()
				held--
				mu.Unlock()
				rel()
			}
		}()
	}
	wg.Wait()
	if peak > bound {
		t.Fatalf("observed %d concurrent admissions, bound %d", peak, bound)
	}
	if got := c.Inflight(0); got != 0 {
		t.Fatalf("inflight leaked: %d", got)
	}
}

// TestRetryAfterComputedFromRefill pins the shed hint arithmetic: a
// token-bucket rejection's Retry-After is always the exact refill
// time on the injectable clock — never the static retryAfterHint —
// including for slow rates where the flat 1s default would tell
// clients to hammer a bucket that cannot possibly have refilled.
func TestRetryAfterComputedFromRefill(t *testing.T) {
	clock := resilience.NewVirtualClock()
	c := New(Config{Shards: 1, Rate: 0.25, Burst: 1, Clock: clock})
	rel, err := c.Admit(0)
	if err != nil {
		t.Fatal(err)
	}
	rel()
	var ov *Overload
	if _, err := c.Admit(0); !errors.As(err, &ov) {
		t.Fatalf("admit on empty bucket = %v", err)
	}
	// Rate 0.25/s: one token takes 4s, not the 1s hint.
	if ov.Reason != "rate" || ov.RetryAfter != 4*time.Second || !ov.Computed {
		t.Fatalf("overload = %+v, want computed rate / 4s", ov)
	}
	// A partial refill shortens the hint by exactly the elapsed time.
	clock.Advance(1500 * time.Millisecond)
	if _, err := c.Admit(0); !errors.As(err, &ov) {
		t.Fatal("bucket refilled too early")
	}
	if ov.RetryAfter != 2500*time.Millisecond || !ov.Computed {
		t.Fatalf("partial-refill overload = %+v, want computed 2.5s", ov)
	}
}

// TestInflightRetryAfterRaisedByEmptyBucket: an inflight rejection
// keeps the static hint when only concurrency is exhausted, but when
// the token bucket is simultaneously empty the computed refill time
// wins if longer — retrying at the hint would just convert the
// rejection into a rate shed.
func TestInflightRetryAfterRaisedByEmptyBucket(t *testing.T) {
	clock := resilience.NewVirtualClock()
	c := New(Config{Shards: 1, MaxInflight: 1, Rate: 0.5, Burst: 1, Clock: clock})
	rel, err := c.Admit(0) // occupies the slot AND drains the bucket
	if err != nil {
		t.Fatal(err)
	}
	var ov *Overload
	if _, err := c.Admit(0); !errors.As(err, &ov) {
		t.Fatalf("admit on full shard = %v", err)
	}
	if ov.Reason != "inflight" || ov.RetryAfter != 2*time.Second || !ov.Computed {
		t.Fatalf("overload = %+v, want inflight raised to computed 2s", ov)
	}
	// With the bucket full again, the static hint stands.
	clock.Advance(2 * time.Second)
	if _, err := c.Admit(0); !errors.As(err, &ov) {
		t.Fatal("still rejected?")
	}
	if ov.Reason != "inflight" || ov.RetryAfter != time.Second || ov.Computed {
		t.Fatalf("overload = %+v, want static 1s hint", ov)
	}
	rel()
}
