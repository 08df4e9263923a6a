package cda

// resilience_bench_test.go measures the overhead and behavior of the
// fault-injection and resilience layer:
//
//   - BenchmarkResilienceOverhead: the cost Respond pays for running
//     the NL2SQL path through the retry/breaker executor when no
//     faults are configured — the production tax of the layer.
//   - BenchmarkResilienceChaosReplay: one full Figure 1 chaos replay
//     per iteration at a moderate fault rate, the end-to-end price of
//     retries, backoff (on the virtual clock), and ladder fallbacks.
//   - BenchmarkResilienceRetrier / Breaker: the micro costs of one
//     guarded call on the happy path.
//
// The check gate runs every BenchmarkResilience* once as a smoke test.

import (
	"context"
	"testing"

	"github.com/reliable-cda/cda/internal/chaos"
	"github.com/reliable-cda/cda/internal/core"
	"github.com/reliable-cda/cda/internal/faults"
	"github.com/reliable-cda/cda/internal/resilience"
	"github.com/reliable-cda/cda/internal/workload"
)

func BenchmarkResilienceOverhead(b *testing.B) {
	dom := workload.NewSwissDomain(1)
	sys := core.New(core.Config{
		DB: dom.DB, Catalog: dom.Catalog, KG: dom.KG, Vocab: dom.Vocab,
		Documents: dom.Documents, Now: dom.Now, Seed: 1,
		Clock: resilience.NewVirtualClock(),
	})
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess := sys.NewSession()
		if _, err := sys.Respond(ctx, sess, "how many employment where canton is Zurich"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkResilienceChaosReplay(b *testing.B) {
	sc := chaos.Scenario{
		Seed:         1,
		Rates:        faults.Rates{Error: 0.2, Latency: 0.1, Corrupt: 0.1},
		FaultStorage: true,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := chaos.ReplaySwiss(context.Background(), sc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkResilienceRetrier(b *testing.B) {
	r := resilience.NewRetrier(resilience.NewVirtualClock(), 1)
	ctx := context.Background()
	op := func() error { return nil }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.Do(ctx, op); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkResilienceBreaker(b *testing.B) {
	ex := resilience.NewExecutor(resilience.NewVirtualClock(), 1)
	ctx := context.Background()
	op := func() error { return nil }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ex.Do(ctx, "bench", op); err != nil {
			b.Fatal(err)
		}
	}
}
