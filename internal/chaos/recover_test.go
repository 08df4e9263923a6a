package chaos

import (
	"context"
	"regexp"
	"strings"
	"testing"

	"github.com/reliable-cda/cda/internal/faults"
)

// turnHeader matches the "NNN role" prefix turnLines gives each turn;
// answer bodies may hold newlines, so counting these is the only safe
// way to count turns in a rendered transcript.
var turnHeader = regexp.MustCompile(`(?m)^[0-9]{3} `)

func countTurns(transcript string) int {
	return len(turnHeader.FindAllString(transcript, -1))
}

// TestKillRecoverByteIdentical is the recovery contract under a clean
// kill: every committed turn survives, byte for byte, and nothing
// uncommitted leaks in.
func TestKillRecoverByteIdentical(t *testing.T) {
	for _, seed := range []int64{1, 2, 7} {
		res, err := KillRecover(context.Background(), KillRecoverScenario{
			Seed: seed, KillAfter: 5, Dir: t.TempDir(),
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Committed != 5 || res.Killed {
			t.Fatalf("seed %d: committed=%d killed=%t, want 5/false", seed, res.Committed, res.Killed)
		}
		if res.Recovered != res.PreCrash {
			t.Errorf("seed %d: recovered transcript differs from pre-crash:\npre:  %q\npost: %q",
				seed, res.PreCrash, res.Recovered)
		}
		if !strings.HasPrefix(res.Final, res.Recovered) {
			t.Errorf("seed %d: final transcript does not extend the recovered one", seed)
		}
		// 5 user turns committed -> 10 transcript entries.
		if n := countTurns(res.PreCrash); n != 10 {
			t.Errorf("seed %d: pre-crash transcript has %d turns, want 10", seed, n)
		}
	}
}

// TestKillRecoverUnderTornWrites drives the crash injector: the kill
// lands mid-append at a seeded byte, and recovery must still serve
// exactly the committed prefix — a rolled-back torn turn never
// reappears, a committed one never vanishes.
func TestKillRecoverUnderTornWrites(t *testing.T) {
	killedSomewhere := false
	for seed := int64(1); seed <= 8; seed++ {
		res, err := KillRecover(context.Background(), KillRecoverScenario{
			Seed: seed, CrashRate: 0.25, KillAfter: 8, Dir: t.TempDir(),
			Rates: faults.Rates{Error: 0.1},
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Killed {
			killedSomewhere = true
		}
		if res.Recovered != res.PreCrash {
			t.Errorf("seed %d (killed=%t committed=%d): recovery diverged:\npre:  %q\npost: %q",
				seed, res.Killed, res.Committed, res.PreCrash, res.Recovered)
		}
		if res.SessionID != "" && countTurns(res.Recovered) != 2*res.Committed {
			t.Errorf("seed %d: %d committed turns but %d recovered entries",
				seed, res.Committed, countTurns(res.Recovered))
		}
	}
	if !killedSomewhere {
		t.Error("crash rate 0.25 never killed across 8 seeds — injector not wired?")
	}
}

// TestKillRecoverDeterministic is the determinism gate: one scenario
// run twice (fresh directories, same seed) must render byte-identical
// transcripts, faults and kill point included.
func TestKillRecoverDeterministic(t *testing.T) {
	scenarios := []KillRecoverScenario{
		{Seed: 1, KillAfter: 5},
		{Seed: 3, CrashRate: 0.25, KillAfter: 8},
		{Seed: 5, CrashRate: 0.25, Rates: faults.Rates{Error: 0.2, Latency: 0.1}, KillAfter: 6},
		{Seed: 11, CrashRate: 1, KillAfter: 4}, // always torn: kill point is the first append
	}
	for _, sc := range scenarios {
		a := sc
		a.Dir = t.TempDir()
		resA, err := KillRecover(context.Background(), a)
		if err != nil {
			t.Fatalf("seed %d run A: %v", sc.Seed, err)
		}
		b := sc
		b.Dir = t.TempDir()
		resB, err := KillRecover(context.Background(), b)
		if err != nil {
			t.Fatalf("seed %d run B: %v", sc.Seed, err)
		}
		if resA.Transcript != resB.Transcript {
			t.Errorf("seed %d: kill-and-recover transcripts diverge across identical runs:\nA: %q\nB: %q",
				sc.Seed, resA.Transcript, resB.Transcript)
		}
		if resA.Recovered != resA.PreCrash {
			t.Errorf("seed %d: recovery not byte-identical", sc.Seed)
		}
	}
}
