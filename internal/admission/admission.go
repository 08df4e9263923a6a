// Package admission is the server's overload-protection layer: it
// decides, before any work is done, whether a request may enter the
// system. Each session-store shard gets its own gate with two
// independent brakes:
//
//   - a bounded inflight count, so one hot shard cannot queue
//     unboundedly while its sessions serialize on their turn locks;
//   - a token bucket refilled on the injectable resilience.Clock, so
//     sustained arrival rates above the configured budget are shed
//     early instead of growing latency without bound.
//
// A rejected request carries a Retry-After hint, which the server
// surfaces as HTTP 429 + Retry-After — the graceful-degradation
// stance of the resilience layer applied to load: an overloaded shard
// says "come back in a moment" instead of timing out silently, and
// requests that were already admitted run to completion untouched.
//
// Everything is deterministic under a resilience.VirtualClock: tests
// advance time explicitly and observe exact shed/admit decisions.
package admission

import (
	"fmt"
	"math"
	"sync"
	"time"

	"github.com/reliable-cda/cda/internal/resilience"
)

// Config shapes the controller.
type Config struct {
	// Shards is the number of independent gates; align it with the
	// session store's shard count (default 8, rounded up to a power of
	// two like the store).
	Shards int
	// MaxInflight bounds concurrently admitted requests per shard
	// (default 64; negative disables the bound).
	MaxInflight int
	// Rate is the sustained admission budget per shard in requests
	// per second on the clock; 0 disables rate limiting.
	Rate float64
	// Burst is the token-bucket capacity (default max(Rate, 1)).
	Burst float64
	// Clock drives bucket refill; nil defaults to a VirtualClock
	// (deterministic). Production passes resilience.NewWallClock().
	Clock resilience.Clock
}

func (cfg Config) withDefaults() Config {
	if cfg.Shards <= 0 {
		cfg.Shards = 8
	}
	n := 1
	for n < cfg.Shards {
		n <<= 1
	}
	cfg.Shards = n
	if cfg.MaxInflight == 0 {
		cfg.MaxInflight = 64
	}
	if cfg.Burst <= 0 {
		cfg.Burst = math.Max(cfg.Rate, 1)
	}
	if cfg.Clock == nil {
		cfg.Clock = resilience.NewVirtualClock()
	}
	return cfg
}

// retryAfterHint is the Retry-After floor used when the inflight bound
// rejects a request: concurrency has no natural refill time, so the
// hint stands in — unless the token bucket is also empty, in which
// case its computed refill time wins when longer. Token-bucket
// rejections never use the hint; their Retry-After is always the exact
// refill time on the clock.
const retryAfterHint = time.Second

// Overload is the shed decision: the request was NOT admitted and the
// client should retry no sooner than RetryAfter.
type Overload struct {
	// Shard is the gate that shed the request.
	Shard int
	// Reason is "inflight" (concurrency bound) or "rate" (token
	// bucket empty).
	Reason string
	// RetryAfter is the suggested wait before retrying. For "rate" it
	// is always the exact bucket refill time on the controller's
	// clock; for "inflight" it is the 1s hint, raised to the
	// refill time when the bucket is simultaneously empty (retrying
	// sooner would trade a concurrency rejection for a rate one).
	RetryAfter time.Duration
	// Computed reports whether RetryAfter came from bucket refill
	// arithmetic rather than the static 1s hint.
	Computed bool
}

// Error renders the shed decision.
func (o *Overload) Error() string {
	return fmt.Sprintf("admission: shard %d overloaded (%s), retry after %s",
		o.Shard, o.Reason, o.RetryAfter)
}

// Controller gates admission per shard. Safe for concurrent use.
type Controller struct {
	cfg   Config
	clock resilience.Clock
	gates []*gate
}

type gate struct {
	mu       sync.Mutex
	inflight int
	tokens   float64
	last     time.Duration
}

// New builds a controller.
func New(cfg Config) *Controller {
	cfg = cfg.withDefaults()
	c := &Controller{cfg: cfg, clock: cfg.Clock, gates: make([]*gate, cfg.Shards)}
	for i := range c.gates {
		c.gates[i] = &gate{tokens: cfg.Burst}
	}
	return c
}

// Admit asks shard's gate for entry. On success it returns a release
// function the caller MUST invoke when the request finishes (it is
// idempotent). On overload it returns a *Overload error and the
// request must not proceed — nothing was consumed except one token
// check, so shedding is O(1) regardless of load.
func (c *Controller) Admit(shard int) (func(), error) {
	g := c.gates[shard&(len(c.gates)-1)]
	g.mu.Lock()
	defer g.mu.Unlock()
	if c.cfg.Rate > 0 {
		now := c.clock.Now()
		g.tokens = math.Min(c.cfg.Burst, g.tokens+c.cfg.Rate*(now-g.last).Seconds())
		g.last = now
	}
	if c.cfg.MaxInflight > 0 && g.inflight >= c.cfg.MaxInflight {
		ov := &Overload{Shard: shard, Reason: "inflight", RetryAfter: retryAfterHint}
		if c.cfg.Rate > 0 && g.tokens < 1 {
			if wait := refillWait(g.tokens, c.cfg.Rate); wait > ov.RetryAfter {
				ov.RetryAfter = wait
				ov.Computed = true
			}
		}
		return nil, ov
	}
	if c.cfg.Rate > 0 {
		if g.tokens < 1 {
			return nil, &Overload{Shard: shard, Reason: "rate",
				RetryAfter: refillWait(g.tokens, c.cfg.Rate), Computed: true}
		}
		g.tokens--
	}
	g.inflight++
	var once sync.Once
	return func() {
		once.Do(func() {
			g.mu.Lock()
			g.inflight--
			g.mu.Unlock()
		})
	}, nil
}

// refillWait computes how long the bucket needs on the clock to
// refill back to one token — the exact earliest instant a retry could
// be admitted by the rate brake (minimum 1ms so the hint is never
// zero under float truncation).
func refillWait(tokens, rate float64) time.Duration {
	wait := time.Duration((1 - tokens) / rate * float64(time.Second))
	if wait <= 0 {
		wait = time.Millisecond
	}
	return wait
}

// Inflight reports a shard's currently admitted request count
// (observability and tests).
func (c *Controller) Inflight(shard int) int {
	g := c.gates[shard&(len(c.gates)-1)]
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.inflight
}

// RetryAfterSeconds renders a Retry-After duration as the
// whole-seconds string HTTP requires, rounding up so clients never
// retry early (minimum "1").
func RetryAfterSeconds(d time.Duration) string {
	s := int(math.Ceil(d.Seconds()))
	if s < 1 {
		s = 1
	}
	return fmt.Sprintf("%d", s)
}
