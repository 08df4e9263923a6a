// Package chaos is the deterministic fault-sweep harness: it replays
// the paper's Figure 1 Swiss-workforce dialogue and the synthetic
// NL2SQL workload through a core.System whose backends are wrapped by
// a seeded fault injector (internal/faults) on a virtual clock
// (internal/resilience). Because every source of randomness — fault
// draws, injected latency, retry jitter, model confidence — is a pure
// function of the scenario seed, one scenario replays to a
// byte-identical transcript every time, faults included. The property
// tests in this package sweep fault rates and assert the reliability
// invariants the tentpole promises: no panics or races, every
// degraded answer is annotated with lowered confidence, and identical
// seeds produce identical transcripts.
package chaos

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"github.com/reliable-cda/cda/internal/core"
	"github.com/reliable-cda/cda/internal/faults"
	"github.com/reliable-cda/cda/internal/resilience"
	"github.com/reliable-cda/cda/internal/workload"
)

// Scenario configures one deterministic chaos replay.
type Scenario struct {
	// Seed drives the domain, the system, and the fault injector.
	Seed int64
	// Rates are the default per-operation fault probabilities applied
	// to every backend.
	Rates faults.Rates
	// PerBackend overrides Rates for specific backends ("sqldb",
	// "nlmodel", "embed", "textindex", "storage").
	PerBackend map[string]faults.Rates
	// FaultStorage additionally wires the injector into the storage
	// layer's Get path (the deepest backend the SQL engine touches).
	FaultStorage bool
}

// Result bundles one replay's outputs for the property tests.
type Result struct {
	Turns   []string
	Answers []*core.Answer
	// Transcript is the canonical rendering of the whole dialogue plus
	// the fault and breaker tallies; two replays of one scenario must
	// produce byte-identical transcripts.
	Transcript string
	// Faults is the injector's per-operation tally after the replay.
	Faults map[string]faults.Counts
	// Breakers is each backend circuit's final state.
	Breakers map[string]resilience.BreakerState
}

// SwissTurns is the Figure 1 dialogue extended with structured query
// turns so the replay exercises the NL2SQL pipeline — the path the
// degradation ladder protects — alongside discovery, description,
// choice, and analysis.
func SwissTurns() []string {
	return append(workload.Figure1Turns(),
		"how many employment where canton is Zurich",
		"how many employment where employment_type is full_time",
		"list the canton of employment",
	)
}

// newSwissSystem builds the Figure 1 world on a virtual clock with the
// scenario's fault injector threaded through every backend.
func newSwissSystem(sc Scenario) (*core.System, *faults.Injector) {
	clock := resilience.NewVirtualClock()
	inj := faults.New(faults.Config{
		Seed:       sc.Seed,
		Default:    sc.Rates,
		PerBackend: sc.PerBackend,
	}, clock)
	dom := workload.NewSwissDomain(sc.Seed)
	if sc.FaultStorage {
		dom.DB.Faults = inj
	}
	sys := core.New(core.Config{
		DB:        dom.DB,
		Catalog:   dom.Catalog,
		KG:        dom.KG,
		Vocab:     dom.Vocab,
		Documents: dom.Documents,
		Now:       dom.Now,
		Seed:      sc.Seed,
		Clock:     clock,
		Faults:    inj,
	})
	return sys, inj
}

// ReplaySwiss replays the extended Figure 1 dialogue in one session
// under the scenario's faults. Respond must never return an error on
// an uncancelled context — outages surface as degraded answers, not
// failures — so any error here is a harness-level failure.
func ReplaySwiss(ctx context.Context, sc Scenario) (*Result, error) {
	sys, inj := newSwissSystem(sc)
	return replay(ctx, sys, inj, SwissTurns())
}

// ReplayNL2SQL replays n generated workload questions through a
// system built over the synthetic benchmark tables (no catalog, no
// documents — the ladder's catalog tier is intentionally empty, the
// worst case for graceful degradation).
func ReplayNL2SQL(ctx context.Context, sc Scenario, n int) (*Result, error) {
	clock := resilience.NewVirtualClock()
	inj := faults.New(faults.Config{
		Seed:       sc.Seed,
		Default:    sc.Rates,
		PerBackend: sc.PerBackend,
	}, clock)
	w := workload.GenNL2SQL(n, 0.3, sc.Seed)
	if sc.FaultStorage {
		w.DB.Faults = inj
	}
	sys := core.New(core.Config{
		DB:     w.DB,
		Vocab:  w.Vocab,
		Seed:   sc.Seed,
		Clock:  clock,
		Faults: inj,
	})
	turns := make([]string, 0, len(w.Pairs))
	for _, qa := range w.Pairs {
		turns = append(turns, qa.Question)
	}
	return replay(ctx, sys, inj, turns)
}

func replay(ctx context.Context, sys *core.System, inj *faults.Injector, turns []string) (*Result, error) {
	sess := sys.NewSession()
	res := &Result{Turns: turns}
	for i, turn := range turns {
		ans, err := sys.Respond(ctx, sess, turn)
		if err != nil {
			return nil, fmt.Errorf("chaos: turn %d %q: %w", i, turn, err)
		}
		res.Answers = append(res.Answers, ans)
	}
	res.Breakers = sys.BreakerStates()
	res.Faults = inj.Snapshot()
	res.Transcript = renderTranscript(res, inj)
	return res, nil
}

// renderTranscript produces the canonical byte-comparable rendering:
// every turn with its answer annotations, the code and sources its
// explanation cites among them, then the fault tallies and breaker
// states in sorted order.
func renderTranscript(res *Result, inj *faults.Injector) string {
	var sb strings.Builder
	for i, turn := range res.Turns {
		a := res.Answers[i]
		fmt.Fprintf(&sb, "U%02d: %s\n", i+1, turn)
		fmt.Fprintf(&sb, "S%02d: conf=%.6f abstained=%t degraded=%q\n", i+1, a.Confidence, a.Abstained, a.Degraded)
		fmt.Fprintf(&sb, "code=%q sources=%q\n", a.Explanation.Code, a.Explanation.Sources)
		fmt.Fprintf(&sb, "%s\n---\n", a.Text)
	}
	for _, op := range inj.Ops() {
		c := res.Faults[op]
		fmt.Fprintf(&sb, "faults %s: calls=%d errors=%d latencies=%d corrupted=%d crashed=%d\n",
			op, c.Calls, c.Errors, c.Latencies, c.Corrupted, c.Crashes)
	}
	for _, name := range sortedKeys(res.Breakers) {
		fmt.Fprintf(&sb, "breaker %s: %s\n", name, res.Breakers[name])
	}
	return sb.String()
}

func sortedKeys(m map[string]resilience.BreakerState) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
