package chaos

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"github.com/reliable-cda/cda/internal/faults"
	"github.com/reliable-cda/cda/internal/server"
	"github.com/reliable-cda/cda/internal/sessionstore"
)

// KillRecoverScenario configures one deterministic kill-and-recover
// replay: a Figure 1 dialogue runs through a durable session store,
// the process is "killed" (the store is abandoned un-closed, possibly
// mid-append via an injected torn write), a fresh store recovers the
// directory, and the dialogue finishes on the recovered state. The
// whole run — fault draws, kill point, recovered bytes — is a pure
// function of the seed, so two runs of one scenario must render
// byte-identical transcripts (the crash-recovery determinism gate in
// scripts/check.sh diffs exactly that).
type KillRecoverScenario struct {
	// Seed drives the domain, the system, and every fault draw.
	Seed int64
	// Rates are backend fault probabilities during turns (the
	// degradation ladder keeps answering under them).
	Rates faults.Rates
	// CrashRate is the probability each WAL append is torn mid-write,
	// killing the process at that exact byte (op "wal.append").
	CrashRate float64
	// KillAfter is the number of user turns attempted before the
	// planned kill (default: half the dialogue). An injected torn
	// write may kill earlier.
	KillAfter int
	// Dir is the store's data directory (the caller provides a fresh
	// temp dir; two runs of one scenario use two dirs and must still
	// render identical transcripts — the path never enters the render).
	Dir string
	// SnapshotEvery is the store's compaction cadence (default 4, low
	// enough that recovery exercises snapshot + WAL replay, not just
	// the WAL).
	SnapshotEvery int
}

// KillRecoverResult bundles one replay's outputs.
type KillRecoverResult struct {
	SessionID string
	// Committed is the number of user turns durably committed before
	// the kill (== KillAfter unless a torn write killed earlier).
	Committed int
	// Killed reports whether an injected torn write cut the run short.
	Killed bool
	// PreCrash is the canonical transcript at the moment of the kill —
	// committed turns only; a rolled-back torn turn never appears.
	PreCrash string
	// Recovered is the transcript the reopened store serves. The
	// recovery contract: Recovered == PreCrash, byte for byte.
	Recovered string
	// Final is the transcript after the recovered process finished the
	// remaining turns.
	Final string
	// Transcript is the canonical rendering of the whole run for
	// determinism diffing.
	Transcript string
}

// KillRecover runs one scenario. Errors are harness failures (the
// scenario could not run), never assertions about recovery — tests
// make those on the result.
func KillRecover(ctx context.Context, sc KillRecoverScenario) (*KillRecoverResult, error) {
	if sc.Dir == "" {
		return nil, errors.New("chaos: KillRecover needs a data dir")
	}
	turns := SwissTurns()
	if sc.KillAfter <= 0 || sc.KillAfter > len(turns) {
		sc.KillAfter = len(turns) / 2
	}
	if sc.SnapshotEvery <= 0 {
		sc.SnapshotEvery = 4
	}
	res := &KillRecoverResult{}

	// Phase 1: the doomed process. One injector drives backend faults
	// and WAL torn writes from one seeded stream.
	sys, inj := newSwissSystem(Scenario{
		Seed:       sc.Seed,
		Rates:      sc.Rates,
		PerBackend: map[string]faults.Rates{"wal": {Crash: sc.CrashRate}},
	})
	st, err := sessionstore.Open(sessionstore.Config{
		Dir: sc.Dir, Shards: 4, SnapshotEvery: sc.SnapshotEvery, Faults: inj,
	})
	if err != nil {
		return nil, fmt.Errorf("chaos: open store: %w", err)
	}
	srv := server.NewWithOptions(sys, nil, 0, server.Options{Store: st})
	// A torn write while logging the session's creation kills the
	// process with nothing durable, and leaves the id empty.
	id, err := srv.CreateSession(ctx)
	res.SessionID, res.Killed = id, errors.Is(err, sessionstore.ErrCrashed)
	if err != nil && !res.Killed {
		return nil, fmt.Errorf("chaos: create session: %w", err)
	}
	for i := 0; !res.Killed && i < sc.KillAfter; i++ {
		_, err := srv.Ask(ctx, id, turns[i])
		if errors.Is(err, sessionstore.ErrCrashed) {
			// The torn write killed the process; the turn never committed.
			res.Killed = true
			break
		}
		if err != nil {
			return nil, fmt.Errorf("chaos: turn %d %q: %w", i, turns[i], err)
		}
		res.Committed++
	}
	if res.SessionID != "" {
		if res.PreCrash, err = transcript(ctx, srv, id); err != nil {
			return nil, err
		}
	}
	// The kill: st is abandoned — never Closed, never compacted.

	// Phase 2: recovery. A fresh process opens the directory (torn tails
	// truncate, snapshots replay, tombstones hold) with the system the
	// same seed rebuilds, its rng restarted as a real restart's is, and
	// no WAL crashes: this process survives.
	st2, err := sessionstore.Open(sessionstore.Config{
		Dir: sc.Dir, Shards: 4, SnapshotEvery: sc.SnapshotEvery,
	})
	if err != nil {
		return nil, fmt.Errorf("chaos: recover store: %w", err)
	}
	sys2, inj2 := newSwissSystem(Scenario{Seed: sc.Seed, Rates: sc.Rates})
	srv2 := server.NewWithOptions(sys2, nil, 0, server.Options{Store: st2})
	if res.SessionID != "" {
		if res.Recovered, err = transcript(ctx, srv2, id); err != nil {
			return nil, fmt.Errorf("chaos: recovered store lost session %s: %w", id, err)
		}
	} else if res.SessionID, err = srv2.CreateSession(ctx); err != nil {
		// Creation itself was killed: the recovered process starts the
		// conversation from scratch.
		return nil, fmt.Errorf("chaos: recreate session: %w", err)
	}

	// Phase 3: the recovered process finishes the dialogue.
	for i := res.Committed; i < len(turns); i++ {
		if _, err := srv2.Ask(ctx, res.SessionID, turns[i]); err != nil {
			return nil, fmt.Errorf("chaos: recovered turn %d %q: %w", i, turns[i], err)
		}
	}
	if res.Final, err = transcript(ctx, srv2, res.SessionID); err != nil {
		return nil, err
	}
	if err := st2.Close(); err != nil {
		return nil, fmt.Errorf("chaos: close recovered store: %w", err)
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "killafter=%d committed=%d killed=%t session=%s\n",
		sc.KillAfter, res.Committed, res.Killed, res.SessionID)
	fmt.Fprintf(&sb, "--- pre-crash\n%s--- recovered\n%s--- final\n%s", res.PreCrash, res.Recovered, res.Final)
	for _, phase := range []struct {
		name string
		inj  *faults.Injector
	}{{"doomed", inj}, {"recovered", inj2}} {
		counts := phase.inj.Snapshot()
		for _, op := range phase.inj.Ops() {
			c := counts[op]
			fmt.Fprintf(&sb, "faults[%s] %s: calls=%d errors=%d latencies=%d corrupted=%d crashed=%d\n",
				phase.name, op, c.Calls, c.Errors, c.Latencies, c.Corrupted, c.Crashes)
		}
	}
	res.Transcript = sb.String()
	return res, nil
}

// transcript renders a session's whole committed transcript as
// renderPage renders a page's turns.
func transcript(ctx context.Context, srv *server.Server, id string) (string, error) {
	page, err := srv.Transcript(ctx, id, 0, server.MaxPageLimit, false)
	return turnLines(page), err
}
