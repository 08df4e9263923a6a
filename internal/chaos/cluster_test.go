package chaos

import (
	"context"
	"fmt"
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

// checkPartitionHeal pins the partition contract on one run: commits
// never fail while the replica is away, the heal crosses the primary's
// compaction horizon by adopting its shard root through negotiated
// chunks, the healed replica is observably stale mid-catch-up, and after
// full catch-up it agrees with the primary on the shard root head and
// serves its transcript byte-identically. Promoted after the kill, it
// finishes the dialogue — no committed turn lost.
func checkPartitionHeal(t *testing.T, sc ClusterPartitionScenario) {
	t.Helper()
	res := runClusterPartition(t, sc)
	run := fmt.Sprintf("seed %d, partition after %d for %d", sc.Seed, sc.PartitionAfter, sc.PartitionTurns)
	if res.Committed != len(SwissTurns()) {
		t.Errorf("%s: committed %d of %d turns — the partition or the kill lost writes",
			run, res.Committed, len(SwissTurns()))
	}
	if res.LagAtHeal <= 0 {
		t.Errorf("%s: lag at heal = %d, want > 0", run, res.LagAtHeal)
	}
	if !res.RootShipped {
		t.Errorf("%s: the heal's first step did not adopt the primary's shard root", run)
	}
	if res.ChunksNegotiated <= 0 {
		t.Errorf("%s: heal moved %d chunks — the versioned path never fired", run, res.ChunksNegotiated)
	}
	if !res.MidCatchUpStale {
		t.Errorf("%s: mid-catch-up replica page not stamped stale:\n%s", run, res.MidCatchUp)
	}
	if !res.ShardRootsMatch {
		t.Errorf("%s: shard root heads diverged across nodes after the heal", run)
	}
	if res.ReplicaHealed != res.Healed {
		t.Errorf("%s: caught-up replica diverged:\nprimary:\n%s\nreplica:\n%s",
			run, res.Healed, res.ReplicaHealed)
	}
	if !strings.Contains(res.Transcript, "promoted=true") {
		t.Errorf("%s: transcript does not record the promotion", run)
	}
	if res.RootLog == "" {
		t.Errorf("%s: promoted replica has no session version log", run)
	}
}

// TestClusterPartitionHeal partitions the replica mid-dialogue (after
// turn 3, for 3 turns) and holds the run to checkPartitionHeal.
func TestClusterPartitionHeal(t *testing.T) {
	for _, seed := range []int64{1, 7, 21, 42, 63} {
		checkPartitionHeal(t, ClusterPartitionScenario{Seed: seed, PartitionAfter: 3, PartitionTurns: 3})
	}
}

// TestClusterKillRecoverVersioned is the versioned failover gate: a
// replica partitioned early (after turn 2, for 4 turns) falls past the
// compaction horizon, catches up through chunk negotiation, agrees with
// the primary on the shard root's commit identity, and — promoted after
// the kill — serves and finishes the dialogue.
func TestClusterKillRecoverVersioned(t *testing.T) {
	for _, seed := range []int64{1, 7, 21, 42, 63} {
		checkPartitionHeal(t, ClusterPartitionScenario{Seed: seed, PartitionAfter: 2, PartitionTurns: 4})
	}
}

// checkPartitionHealDeterministic runs sc twice: the runs must render
// byte-identical transcripts and per-turn root hashes — content
// addressing makes version identity a pure function of the conversation.
func checkPartitionHealDeterministic(t *testing.T, sc ClusterPartitionScenario) {
	t.Helper()
	a := runClusterPartition(t, sc)
	b := runClusterPartition(t, sc)
	if a.Transcript != b.Transcript {
		t.Errorf("seed %d: partition/heal not deterministic:\n--- run 1\n%s\n--- run 2\n%s",
			sc.Seed, a.Transcript, b.Transcript)
	}
	if a.RootLog == "" || a.RootLog != b.RootLog {
		t.Errorf("seed %d: per-turn root hashes empty or differ across runs:\n--- run 1\n%s\n--- run 2\n%s",
			sc.Seed, a.RootLog, b.RootLog)
	}
}

// TestClusterPartitionHealDeterministic: mid-dialogue partitions, one
// of them under injected errors and latency, are deterministic.
func TestClusterPartitionHealDeterministic(t *testing.T) {
	for _, sc := range []ClusterPartitionScenario{
		{Seed: 2, PartitionAfter: 2, PartitionTurns: 4},
		{Seed: 31, PartitionAfter: 3, PartitionTurns: 3, Rates: faults.Rates{Error: 0.1, Latency: 0.1}},
	} {
		checkPartitionHealDeterministic(t, sc)
	}
}

// TestClusterKillRecoverVersionedDeterministic: early, long partitions
// ending in the kill and promotion are deterministic.
func TestClusterKillRecoverVersionedDeterministic(t *testing.T) {
	for _, sc := range []ClusterPartitionScenario{
		{Seed: 5, PartitionAfter: 2, PartitionTurns: 4},
		{Seed: 31, PartitionAfter: 1, PartitionTurns: 5},
	} {
		checkPartitionHealDeterministic(t, sc)
	}
}
