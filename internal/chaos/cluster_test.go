package chaos

import (
	"context"
	"strings"
	"testing"

	"github.com/reliable-cda/cda/internal/faults"
)

func runClusterKill(t *testing.T, sc ClusterScenario) *ClusterKillResult {
	t.Helper()
	sc.PrimaryDir, sc.ReplicaDir = t.TempDir(), t.TempDir()
	res, err := ClusterKillRecover(context.Background(), sc)
	if err != nil {
		t.Fatalf("seed %d: %v", sc.Seed, err)
	}
	return res
}

// TestClusterKillRecover is the failover acceptance gate: a primary
// killed mid-dialogue (planned, between turns) hands its member over
// to the replica, which serves the byte-identical committed
// transcript and finishes every turn.
func TestClusterKillRecover(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		res := runClusterKill(t, ClusterScenario{Seed: seed, KillAfter: 4})
		if res.TornKill {
			t.Fatalf("seed %d: unplanned torn kill with CrashRate 0", seed)
		}
		if res.Committed != len(SwissTurns()) {
			t.Errorf("seed %d: committed %d of %d turns", seed, res.Committed, len(SwissTurns()))
		}
		if !res.PromotedAtKill {
			t.Fatalf("seed %d: promotion never observed", seed)
		}
		if res.Promoted != res.PreKill {
			t.Errorf("seed %d: promoted replica diverged from committed prefix:\npre-kill:\n%s\npromoted:\n%s",
				seed, res.PreKill, res.Promoted)
		}
		if !strings.Contains(res.Transcript, "promoted=true") {
			t.Errorf("seed %d: transcript does not record the promotion", seed)
		}
	}
}

// TestClusterKillRecoverTornWrite arms the torn-write fault so the
// kill lands mid-commit at a seeded byte: the half-written turn must
// never surface anywhere — not on the recovered replica, not in the
// final transcript.
func TestClusterKillRecoverTornWrite(t *testing.T) {
	sawTorn, sawTornCreate := false, false
	for _, seed := range []int64{2, 8, 11, 13, 29} {
		res := runClusterKill(t, ClusterScenario{
			Seed: seed, CrashRate: 0.15, KillAfter: 6,
		})
		if res.TornKill {
			sawTorn = true
		}
		if res.TornKill && !res.PromotedAtKill {
			// Creation itself was torn: the dialogue restarted on the
			// promoted replica with a fresh id.
			sawTornCreate = true
		}
		if res.PromotedAtKill && res.Promoted != res.PreKill {
			t.Errorf("seed %d: promoted replica diverged:\npre-kill:\n%s\npromoted:\n%s",
				seed, res.PreKill, res.Promoted)
		}
		if res.Committed != len(SwissTurns()) {
			t.Errorf("seed %d: committed %d of %d turns", seed, res.Committed, len(SwissTurns()))
		}
	}
	if !sawTorn {
		t.Error("no seed produced a torn-write kill; raise CrashRate or adjust seeds")
	}
	if !sawTornCreate {
		t.Error("no seed tore the session creation itself; adjust seeds to keep that path covered")
	}
}

// TestClusterKillRecoverDeterministic runs each scenario twice (fresh
// dirs both times) and requires byte-identical rendered transcripts —
// the cluster extension of the crash-recovery determinism gate.
func TestClusterKillRecoverDeterministic(t *testing.T) {
	for _, sc := range []ClusterScenario{
		{Seed: 5, KillAfter: 3},
		{Seed: 13, CrashRate: 0.08, Rates: faults.Rates{Error: 0.1, Latency: 0.1}},
		{Seed: 99, CrashRate: 0.04, KillAfter: 6, Rates: faults.Rates{Error: 0.05}},
	} {
		a := runClusterKill(t, sc)
		b := runClusterKill(t, sc)
		if a.Transcript != b.Transcript {
			t.Errorf("seed %d: cluster kill/recover not deterministic:\n--- run 1\n%s\n--- run 2\n%s",
				sc.Seed, a.Transcript, b.Transcript)
		}
	}
}

func runClusterPartition(t *testing.T, sc ClusterPartitionScenario) *ClusterPartitionResult {
	t.Helper()
	sc.PrimaryDir, sc.ReplicaDir = t.TempDir(), t.TempDir()
	res, err := ClusterPartitionHeal(context.Background(), sc)
	if err != nil {
		t.Fatalf("seed %d: %v", sc.Seed, err)
	}
	return res
}

// TestClusterPartitionHeal pins the partition contract: commits never
// fail while the replica is away, the heal crosses the primary's
// compaction horizon by adopting its shard root, the healed replica is
// observably stale mid-catch-up, and after full catch-up it serves the
// primary's transcript byte-identically — no committed turn lost.
func TestClusterPartitionHeal(t *testing.T) {
	for _, seed := range []int64{1, 21, 63} {
		res := runClusterPartition(t, ClusterPartitionScenario{
			Seed: seed, PartitionAfter: 3, PartitionTurns: 4,
		})
		if res.Committed != len(SwissTurns()) {
			t.Errorf("seed %d: committed %d of %d turns — the partition lost writes",
				seed, res.Committed, len(SwissTurns()))
		}
		if res.LagAtHeal <= 0 {
			t.Errorf("seed %d: lag at heal = %d, want > 0", seed, res.LagAtHeal)
		}
		if !res.RootShipped {
			t.Errorf("seed %d: the heal's first step did not adopt the primary's shard root", seed)
		}
		if !res.MidCatchUpStale {
			t.Errorf("seed %d: mid-catch-up replica page not stamped stale:\n%s", seed, res.MidCatchUp)
		}
		if res.ReplicaFinal != res.Final {
			t.Errorf("seed %d: caught-up replica diverged:\nprimary:\n%s\nreplica:\n%s",
				seed, res.Final, res.ReplicaFinal)
		}
	}
}

// TestClusterPartitionHealDeterministic: two runs, byte-identical.
func TestClusterPartitionHealDeterministic(t *testing.T) {
	for _, sc := range []ClusterPartitionScenario{
		{Seed: 2, PartitionAfter: 2, PartitionTurns: 5},
		{Seed: 31, PartitionAfter: 4, PartitionTurns: 3, Rates: faults.Rates{Error: 0.1, Latency: 0.1}},
	} {
		a := runClusterPartition(t, sc)
		b := runClusterPartition(t, sc)
		if a.Transcript != b.Transcript {
			t.Errorf("seed %d: partition/heal not deterministic:\n--- run 1\n%s\n--- run 2\n%s",
				sc.Seed, a.Transcript, b.Transcript)
		}
	}
}
