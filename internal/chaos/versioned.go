package chaos

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"github.com/reliable-cda/cda/internal/cluster"
	"github.com/reliable-cda/cda/internal/resilience"
	"github.com/reliable-cda/cda/internal/sessionstore"
)

// ClusterVersionedScenario configures the versioned kill/recover
// replay: the replica is partitioned past the primary's compaction
// horizon so the heal goes through the shard root (root hash + chunk
// negotiation), and the primary is killed afterwards so the promoted
// replica — caught up via negotiated chunks — serves and finishes the
// dialogue, and its version roots are compared.
type ClusterVersionedScenario struct {
	// Seed drives both systems deterministically.
	Seed int64
	// PartitionAfter is the committed-turn count before the partition
	// (default 2).
	PartitionAfter int
	// PartitionTurns is how many turns commit while the replica is
	// away (default 4 — with SnapshotEvery 4 that pushes the backlog
	// below the compaction horizon, forcing the versioned transfer).
	PartitionTurns int
	// PrimaryDir and ReplicaDir are the nodes' data directories.
	PrimaryDir, ReplicaDir string
	// SnapshotEvery is both stores' compaction cadence (default 4).
	SnapshotEvery int
}

// ClusterVersionedResult bundles one versioned kill/recover replay.
type ClusterVersionedResult struct {
	SessionID string
	// Committed is the total committed turns (the full dialogue).
	Committed int
	// ChunksNegotiated is how many chunks the heal moved to the
	// replica (> 0, or the versioned path never fired).
	ChunksNegotiated int
	// ShardRootsMatch reports whether, after the heal, both nodes'
	// version stores agree on the shard root head — commit hash
	// identity preserved across the ship.
	ShardRootsMatch bool
	// Final is the promoted replica's transcript after the full
	// dialogue.
	Final string
	// RootLog is the canonical per-turn version rendering from the
	// promoted replica: one "turn=N tree=<hash>" line per session
	// commit. Two runs of one seed must render it byte-identically.
	RootLog string
	// Transcript is the canonical run rendering for determinism diffs.
	Transcript string
}

// ClusterKillRecoverVersioned runs one versioned kill/recover
// scenario: partition the replica past the compaction horizon, heal
// through chunk-negotiated versioned catch-up, kill the primary, and
// finish the dialogue on the promoted replica.
func ClusterKillRecoverVersioned(ctx context.Context, sc ClusterVersionedScenario) (*ClusterVersionedResult, error) {
	if sc.PrimaryDir == "" || sc.ReplicaDir == "" {
		return nil, errors.New("chaos: ClusterKillRecoverVersioned needs primary and replica data dirs")
	}
	if sc.SnapshotEvery <= 0 {
		sc.SnapshotEvery = 4
	}
	turns := SwissTurns()
	if sc.PartitionAfter <= 0 {
		sc.PartitionAfter = 2
	}
	if sc.PartitionTurns <= 0 {
		sc.PartitionTurns = 4
	}
	if sc.PartitionAfter+sc.PartitionTurns >= len(turns) {
		return nil, fmt.Errorf("chaos: partition window [%d,%d) leaves no post-kill turns in a %d-turn dialogue",
			sc.PartitionAfter, sc.PartitionAfter+sc.PartitionTurns, len(turns))
	}
	member, pn, rn, _, _, err := newClusterMember(ClusterScenario{Seed: sc.Seed,
		PrimaryDir: sc.PrimaryDir, ReplicaDir: sc.ReplicaDir, SnapshotEvery: sc.SnapshotEvery}, false)
	if err != nil {
		return nil, err
	}
	pvs, rvs := pn.Store().Versions(), rn.Store().Versions()
	router, err := cluster.NewRouter(cluster.Config{
		Members: []cluster.Member{member},
		Breaker: resilience.BreakerConfig{FailureThreshold: 1},
		ShipMax: 8,
	})
	if err != nil {
		return nil, fmt.Errorf("chaos: build router: %w", err)
	}
	res := &ClusterVersionedResult{}
	id, err := router.CreateSession(ctx)
	if err != nil {
		return nil, fmt.Errorf("chaos: create cluster session: %w", err)
	}
	res.SessionID = id
	shard := rn.Store().ShardIndex(id)

	ask := func(i int) error {
		_, aerr := router.Ask(ctx, id, turns[i])
		if errors.Is(aerr, cluster.ErrNodeDown) {
			// The kill moment: breaker trips at threshold 1, the replica
			// is promoted, the turn is re-asked once.
			_, aerr = router.Ask(ctx, id, turns[i])
		}
		if aerr != nil {
			return fmt.Errorf("chaos: cluster turn %d %q: %w", i, turns[i], aerr)
		}
		res.Committed++
		return nil
	}
	for i := 0; i < sc.PartitionAfter; i++ {
		if err := ask(i); err != nil {
			return nil, err
		}
	}
	rn.SetPartitioned(true)
	for i := sc.PartitionAfter; i < sc.PartitionAfter+sc.PartitionTurns; i++ {
		if err := ask(i); err != nil {
			return nil, err
		}
	}
	rn.SetPartitioned(false)

	// Heal below the compaction horizon: the batch carries the shard
	// root, the first apply fails typed on the missing closure, and the
	// router negotiates exactly the delta before re-applying. Chunk
	// growth on the replica measures what actually moved.
	chunksBefore := rvs.NumChunks()
	if err := router.CatchUp(ctx, "m1"); err != nil {
		return nil, fmt.Errorf("chaos: versioned catch up: %w", err)
	}
	res.ChunksNegotiated = rvs.NumChunks() - chunksBefore
	ph, perr := pvs.Head(sessionstore.ShardRoot(shard))
	rh, rerr := rvs.Head(sessionstore.ShardRoot(shard))
	res.ShardRootsMatch = perr == nil && rerr == nil && ph.Hash == rh.Hash && ph.Tree == rh.Tree

	// Kill the primary; the next ask promotes the replica — whose
	// state below the horizon arrived exclusively as negotiated chunks.
	pn.Kill()
	for i := sc.PartitionAfter + sc.PartitionTurns; i < len(turns); i++ {
		if err := ask(i); err != nil {
			return nil, err
		}
	}
	res.Final, err = fullPage(ctx, router, id, false)
	if err != nil {
		return nil, err
	}

	// Per-turn version roots from the promoted replica: tree hashes,
	// not commit hashes, because the replica's commit log legitimately
	// starts at install time while tree addresses are content-equal
	// across nodes and across runs.
	log, err := rn.Store().SessionVersions(id)
	if err != nil {
		return nil, fmt.Errorf("chaos: session versions on replica: %w", err)
	}
	var rl strings.Builder
	for _, c := range log {
		fmt.Fprintf(&rl, "turn=%d tree=%s\n", c.Turn, c.Tree)
	}
	res.RootLog = rl.String()

	var sb strings.Builder
	fmt.Fprintf(&sb, "seed=%d partitionAfter=%d partitionTurns=%d committed=%d negotiated=%d shardRootsMatch=%t session=%s\n",
		sc.Seed, sc.PartitionAfter, sc.PartitionTurns, res.Committed, res.ChunksNegotiated, res.ShardRootsMatch, res.SessionID)
	fmt.Fprintf(&sb, "--- final\n%s--- session roots\n%s", res.Final, res.RootLog)
	for _, st := range router.Status(ctx) {
		fmt.Fprintf(&sb, "member %s: active=%s promoted=%t breaker=%s\n",
			st.Name, st.Active, st.Promoted, st.Breaker)
	}
	res.Transcript = sb.String()
	return res, nil
}
