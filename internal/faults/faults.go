// Package faults is the deterministic, seeded chaos injector behind
// the repo's resilience guarantees. Backends (storage lookups, text
// and embedding search, nlmodel generation, version-store writes)
// expose small hook interfaces; an Injector wired into those hooks
// draws per-backend error, latency, and corruption faults from one
// seeded rand.Rand. Everything is deterministic: the same seed and
// the same call sequence produce the same faults, so a chaos run's
// transcript is byte-for-byte reproducible (the determinism contract
// from the parallel-execution layer, extended to failures).
//
// Injected errors are marked transient (resilience.MarkTransient), so
// the retry layer treats them exactly like real backend flakiness;
// latency faults sleep on the injected clock (zero wall time under a
// VirtualClock); corruption faults hand backends a seeded token
// corrupter so the verification layer has something real to catch.
package faults

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"github.com/reliable-cda/cda/internal/nlmodel"
	"github.com/reliable-cda/cda/internal/resilience"
)

// Rates are per-operation fault probabilities in [0,1].
type Rates struct {
	// Error is the probability an operation fails with a transient
	// injected error.
	Error float64
	// Latency is the probability an operation is delayed by
	// injectedLatency on the injected clock.
	Latency float64
	// Corrupt is the probability a corruption-capable operation has
	// its payload corrupted (e.g. the NL model's token stream).
	Corrupt float64
	// Crash is the probability a durable append is torn mid-write
	// (TornWrite): the write stops at a seeded cut point and the
	// process is considered dead. The session store's WAL uses this to
	// property-test crash recovery against torn tails.
	Crash float64
}

// Config assembles an Injector.
type Config struct {
	// Seed drives the fault stream deterministically.
	Seed int64
	// Default applies to every backend without an override.
	Default Rates
	// PerBackend overrides rates for specific backend names (the op
	// prefix before the first dot, e.g. "storage" for "storage.get").
	PerBackend map[string]Rates
}

// injectedLatency is the clock time one latency fault sleeps.
const injectedLatency = 5 * time.Millisecond

// Counts tallies the faults injected for one backend.
type Counts struct {
	Calls     int64
	Errors    int64
	Latencies int64
	Corrupted int64
	Crashes   int64
}

// InjectedError is the transient failure the injector produces,
// carrying the faulted operation for breaker attribution and tests.
type InjectedError struct {
	Op string
}

// Error describes the injected fault.
func (e *InjectedError) Error() string {
	return fmt.Sprintf("faults: injected backend error on %s", e.Op)
}

// Injector draws deterministic faults for backend operations. The
// zero value is not usable; construct with New. A nil *Injector is
// safe to pass where a hook interface is optional — but note that
// storing a nil *Injector in a non-nil interface field re-enables the
// methods, so backends guard with `if hook != nil` on the interface,
// and core only sets hooks when an injector is configured.
type Injector struct {
	cfg   Config
	clock resilience.Clock

	mu     sync.Mutex
	rng    *rand.Rand
	counts map[string]*Counts
}

// New builds an injector on the given clock (nil = VirtualClock, the
// deterministic default).
func New(cfg Config, clock resilience.Clock) *Injector {
	if clock == nil {
		clock = resilience.NewVirtualClock()
	}
	return &Injector{
		cfg:    cfg,
		clock:  clock,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		counts: make(map[string]*Counts),
	}
}

// rates resolves the effective rates for an op like "storage.get":
// the backend override (key "storage") wins over the default.
func (in *Injector) rates(op string) Rates {
	backend := op
	for i := 0; i < len(op); i++ {
		if op[i] == '.' {
			backend = op[:i]
			break
		}
	}
	if r, ok := in.cfg.PerBackend[backend]; ok {
		return r
	}
	return in.cfg.Default
}

// count returns the op's counter, creating it. Caller holds in.mu.
func (in *Injector) count(op string) *Counts {
	c, ok := in.counts[op]
	if !ok {
		c = &Counts{}
		in.counts[op] = c
	}
	return c
}

// Inject is the error/latency hook backends call at the top of an
// operation. It returns nil (no fault), sleeps the configured latency
// on the clock before returning nil (latency fault), or returns a
// transient *InjectedError (error fault). Exactly one rng draw is
// consumed per decision so the fault stream stays aligned across
// runs.
func (in *Injector) Inject(op string) error {
	r := in.rates(op)
	in.mu.Lock()
	c := in.count(op)
	c.Calls++
	draw := in.rng.Float64()
	var injectErr, injectLat bool
	switch {
	case draw < r.Error:
		injectErr = true
		c.Errors++
	case draw < r.Error+r.Latency:
		injectLat = true
		c.Latencies++
	}
	in.mu.Unlock()
	if injectErr {
		return resilience.MarkTransient(&InjectedError{Op: op})
	}
	if injectLat {
		// Latency rides the injected clock: free and deterministic
		// under a VirtualClock, real under a WallClock. The sleep is
		// not cancellable here because backend hook signatures carry
		// no context; deadline enforcement happens a layer up.
		// cdalint:ignore ctx-propagation -- backend hooks are
		// context-free by design; see the note above.
		if err := in.clock.Sleep(context.Background(), injectedLatency); err != nil {
			return err
		}
	}
	return nil
}

// Corrupt reports whether a corruption fault fires for op, consuming
// one draw.
func (in *Injector) Corrupt(op string) bool {
	r := in.rates(op)
	in.mu.Lock()
	defer in.mu.Unlock()
	c := in.count(op)
	c.Calls++
	if in.rng.Float64() < r.Corrupt {
		c.Corrupted++
		return true
	}
	return false
}

// TornWrite applies a crash fault to a pending durable append: when
// the fault fires it returns the prefix of b that "reached disk"
// before the simulated process death (possibly empty) and true; the
// writer must persist exactly that prefix and then report the crash
// upward. Otherwise b is returned unchanged with false. One rng draw
// decides the fault, a second (only when it fires) picks the cut
// point, so the fault stream stays seed-aligned.
func (in *Injector) TornWrite(op string, b []byte) ([]byte, bool) {
	r := in.rates(op)
	in.mu.Lock()
	defer in.mu.Unlock()
	c := in.count(op)
	c.Calls++
	if in.rng.Float64() >= r.Crash {
		return b, false
	}
	c.Crashes++
	cut := 0
	if len(b) > 0 {
		cut = in.rng.Intn(len(b))
	}
	return b[:cut], true
}

// CorruptTokens applies a corruption fault to a token sequence: when
// the fault fires, the sequence is pushed through a fully-noisy
// nlmodel channel (every token corrupted with the channel's seeded
// modes); otherwise it is returned unchanged. The input is never
// mutated.
func (in *Injector) CorruptTokens(op string, toks []string) []string {
	if !in.Corrupt(op) {
		return toks
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	ch := nlmodel.Channel{HallucinationRate: 0.5}
	return ch.Corrupt(in.rng, toks)
}

// Snapshot returns the per-op fault counts, keys sorted for
// deterministic reporting.
func (in *Injector) Snapshot() map[string]Counts {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[string]Counts, len(in.counts))
	for op, c := range in.counts {
		out[op] = *c
	}
	return out
}

// Ops returns the sorted operation names seen so far.
func (in *Injector) Ops() []string {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]string, 0, len(in.counts))
	for op := range in.counts {
		out = append(out, op)
	}
	sort.Strings(out)
	return out
}
