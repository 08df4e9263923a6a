package faults

import (
	"errors"
	"testing"
	"time"

	"github.com/reliable-cda/cda/internal/resilience"
)

func TestInjectDeterministic(t *testing.T) {
	run := func() []string {
		in := New(Config{Seed: 11, Default: Rates{Error: 0.3, Latency: 0.2}}, nil)
		var out []string
		for i := 0; i < 200; i++ {
			if err := in.Inject("storage.get"); err != nil {
				out = append(out, err.Error())
			} else {
				out = append(out, "ok")
			}
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fault stream diverged at call %d: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestInjectRatesRoughlyHonored(t *testing.T) {
	in := New(Config{Seed: 5, Default: Rates{Error: 0.25, Latency: 0.25}}, nil)
	const n = 4000
	for i := 0; i < n; i++ {
		// Errors are expected; the tally below checks the rate.
		_ = in.Inject("embed.search") // cdalint:ignore dropped-error -- outcome read from Snapshot below
	}
	c := in.Snapshot()["embed.search"]
	if c.Calls != n {
		t.Fatalf("want %d calls, got %d", n, c.Calls)
	}
	errFrac := float64(c.Errors) / n
	latFrac := float64(c.Latencies) / n
	if errFrac < 0.2 || errFrac > 0.3 {
		t.Fatalf("error rate %v far from 0.25", errFrac)
	}
	if latFrac < 0.2 || latFrac > 0.3 {
		t.Fatalf("latency rate %v far from 0.25", latFrac)
	}
}

func TestInjectedErrorsAreTransient(t *testing.T) {
	in := New(Config{Seed: 1, Default: Rates{Error: 1}}, nil)
	err := in.Inject("storage.get")
	if err == nil {
		t.Fatal("rate 1 must always inject")
	}
	if !resilience.IsTransient(err) {
		t.Fatal("injected errors must be transient so retries engage")
	}
	var ie *InjectedError
	if !errors.As(err, &ie) || ie.Op != "storage.get" {
		t.Fatalf("want InjectedError carrying the op, got %v", err)
	}
}

func TestLatencyAdvancesClock(t *testing.T) {
	clock := resilience.NewVirtualClock()
	in := New(Config{Seed: 1, Default: Rates{Latency: 1}}, clock)
	if err := in.Inject("textindex.search"); err != nil {
		t.Fatal(err)
	}
	if clock.Now() != 5*time.Millisecond {
		t.Fatalf("latency fault must sleep on the clock, now=%v", clock.Now())
	}
}

func TestPerBackendOverrides(t *testing.T) {
	in := New(Config{
		Seed:       3,
		Default:    Rates{},
		PerBackend: map[string]Rates{"vectorindex": {Error: 1}},
	}, nil)
	if err := in.Inject("vectorindex.search"); err == nil {
		t.Fatal("override backend must fault")
	}
	if err := in.Inject("storage.get"); err != nil {
		t.Fatalf("default backend must not fault: %v", err)
	}
}

func TestCorruptTokens(t *testing.T) {
	in := New(Config{Seed: 9, Default: Rates{Corrupt: 1}}, nil)
	toks := []string{"SELECT", "canton", "FROM", "employment"}
	got := in.CorruptTokens("nlmodel.generate", toks)
	same := len(got) == len(toks)
	if same {
		for i := range got {
			if got[i] != toks[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatalf("rate-1 corruption left tokens untouched: %v", got)
	}
	for i, want := range []string{"SELECT", "canton", "FROM", "employment"} {
		if toks[i] != want {
			t.Fatal("input slice must never be mutated")
		}
	}

	off := New(Config{Seed: 9}, nil)
	if got := off.CorruptTokens("nlmodel.generate", toks); len(got) != len(toks) {
		t.Fatalf("rate-0 corruption must be identity, got %v", got)
	}
}

func TestTornWriteDeterministic(t *testing.T) {
	run := func() (cuts []int, fired int) {
		in := New(Config{Seed: 7, Default: Rates{Crash: 0.5}}, nil)
		payload := []byte("0123456789abcdef")
		for i := 0; i < 50; i++ {
			got, crashed := in.TornWrite("wal.append", payload)
			if !crashed {
				if len(got) != len(payload) {
					t.Fatalf("clean write truncated to %d bytes", len(got))
				}
				cuts = append(cuts, -1)
				continue
			}
			fired++
			if len(got) >= len(payload) {
				t.Fatalf("crash fault left a complete write (%d bytes)", len(got))
			}
			cuts = append(cuts, len(got))
		}
		if c := in.Snapshot()["wal.append"]; c.Crashes != int64(fired) || c.Calls != 50 {
			t.Fatalf("counts = %+v, want crashes=%d calls=50", c, fired)
		}
		return cuts, fired
	}
	a, firedA := run()
	b, firedB := run()
	if firedA == 0 || firedA == 50 {
		t.Fatalf("crash rate 0.5 fired %d/50 times", firedA)
	}
	if firedA != firedB {
		t.Fatalf("fired %d vs %d across identical runs", firedA, firedB)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("cut %d differs: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestTornWriteZeroRatePassesThrough(t *testing.T) {
	in := New(Config{Seed: 1}, nil)
	b, crashed := in.TornWrite("wal.append", []byte("abc"))
	if crashed || string(b) != "abc" {
		t.Fatalf("TornWrite = %q, %t", b, crashed)
	}
}
