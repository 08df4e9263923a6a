package chaos

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"github.com/reliable-cda/cda/internal/cluster"
	"github.com/reliable-cda/cda/internal/faults"
	"github.com/reliable-cda/cda/internal/server"
	"github.com/reliable-cda/cda/internal/sessionstore"
)

// ClusterScenario configures one deterministic cluster chaos replay:
// a one-member ring (a primary/replica pair of durable stores, each
// with its own seeded system and version store — two "processes")
// fronted by a router
// whose failover breaker trips on the first node-level failure. The
// kill arrives either as a seeded torn journal write mid-commit
// (CrashRate) or as a clean kill after KillAfter committed turns —
// both pure functions of the seed, so two runs of one scenario render
// byte-identical transcripts.
type ClusterScenario struct {
	// Seed drives both systems, the fault injector, and the kill point.
	Seed int64
	// Rates are backend fault probabilities during turns.
	Rates faults.Rates
	// CrashRate is the probability each primary journal append is torn
	// mid-write, killing the primary at that exact byte.
	CrashRate float64
	// KillAfter is the committed-turn count before the planned clean
	// kill (default: half the dialogue). A torn write may kill earlier.
	KillAfter int
	// PrimaryDir and ReplicaDir are the two nodes' data directories
	// (fresh temp dirs; paths never enter the rendered transcript).
	PrimaryDir, ReplicaDir string
	// SnapshotEvery is both stores' compaction cadence (default 4).
	SnapshotEvery int
}

// ClusterKillResult bundles one kill/failover replay's outputs.
type ClusterKillResult struct {
	SessionID string
	// Committed is the number of turns durably committed (and shipped)
	// before the kill.
	Committed int
	// TornKill reports whether an injected torn write killed the
	// primary before the planned clean kill.
	TornKill bool
	// PreKill is the canonical transcript after the last pre-kill
	// commit — the state the replica must serve after promotion.
	PreKill string
	// Promoted is the transcript the promoted replica serves
	// immediately after failover. Contract: Promoted == PreKill.
	Promoted string
	// PromotedAtKill reports whether Promoted was captured at the kill
	// moment (false only when creation itself was torn — the dialogue
	// then starts on the replica and there is no pre-kill state to
	// compare).
	PromotedAtKill bool
	// Final is the transcript after the promoted node finished the
	// dialogue (the killed turn re-asked, every turn answered).
	Final string
	// Transcript is the canonical rendering of the whole run for
	// run-twice determinism diffing.
	Transcript string
}

// newClusterMember assembles the pair of local nodes for one member.
// Each node gets its own system (separate processes don't share rng
// position) built from the same seed; only the primary's store is
// wired to the crash injector — the replica survives the scenario.
func newClusterMember(sc ClusterScenario, crash bool) (cluster.Member, *cluster.LocalNode, *cluster.LocalNode, *faults.Injector, *faults.Injector, error) {
	perBackend := map[string]faults.Rates{}
	if crash {
		perBackend["vstore"] = faults.Rates{Crash: sc.CrashRate}
	}
	psys, pinj := newSwissSystem(Scenario{Seed: sc.Seed, Rates: sc.Rates, PerBackend: perBackend})
	rsys, rinj := newSwissSystem(Scenario{Seed: sc.Seed, Rates: sc.Rates})
	pstore, err := sessionstore.Open(sessionstore.Config{
		Dir: sc.PrimaryDir, Shards: 4, SnapshotEvery: sc.SnapshotEvery, Faults: pinj})
	if err != nil {
		return cluster.Member{}, nil, nil, nil, nil, fmt.Errorf("chaos: open primary store: %w", err)
	}
	rstore, err := sessionstore.Open(sessionstore.Config{
		Dir: sc.ReplicaDir, Shards: 4, SnapshotEvery: sc.SnapshotEvery})
	if err != nil {
		return cluster.Member{}, nil, nil, nil, nil, fmt.Errorf("chaos: open replica store: %w", err)
	}
	pn := cluster.NewLocalNode("m1-primary", pstore, psys)
	rn := cluster.NewLocalNode("m1-replica", rstore, rsys)
	return cluster.Member{Name: "m1", Primary: pn, Replica: rn}, pn, rn, pinj, rinj, nil
}

// renderPage renders a transcript page canonically: its staleness
// stamp, then its turns (turnLines), so pages are byte-comparable across
// runs and across nodes.
func renderPage(page server.TranscriptPage) string {
	return fmt.Sprintf("total=%d offset=%d stale=%t lag=%d source=%s\n",
		page.Total, page.Offset, page.Stale, page.LagRecords, page.Source) + turnLines(page)
}

// turnLines renders a page's turns, one line each, confidences in exact
// shortest form.
func turnLines(page server.TranscriptPage) string {
	var sb strings.Builder
	for i, t := range page.Turns {
		fmt.Fprintf(&sb, "%03d %s", page.Offset+i, t.Role)
		if t.Role == "user" {
			fmt.Fprintf(&sb, " intent=%s", t.Intent)
		} else {
			fmt.Fprintf(&sb, " conf=%s", strconv.FormatFloat(t.Confidence, 'g', -1, 64))
		}
		sb.WriteString(" | ")
		sb.WriteString(t.Text)
		sb.WriteByte('\n')
	}
	return sb.String()
}

// fullPage reads a session's entire transcript through the router.
func fullPage(ctx context.Context, r *cluster.Router, id string, preferReplica bool) (string, error) {
	page, err := r.Transcript(ctx, id, 0, server.MaxPageLimit, preferReplica)
	if err != nil {
		return "", err
	}
	return renderPage(page), nil
}

// ClusterKillRecover runs one kill/failover scenario. Errors are
// harness failures; the recovery contract (Promoted == PreKill, Final
// complete, run-twice byte-identical) is asserted by the tests on the
// result.
func ClusterKillRecover(ctx context.Context, sc ClusterScenario) (*ClusterKillResult, error) {
	if sc.PrimaryDir == "" || sc.ReplicaDir == "" {
		return nil, errors.New("chaos: ClusterKillRecover needs primary and replica data dirs")
	}
	if sc.SnapshotEvery <= 0 {
		sc.SnapshotEvery = 4
	}
	turns := SwissTurns()
	if sc.KillAfter <= 0 || sc.KillAfter >= len(turns) {
		sc.KillAfter = len(turns) / 2
	}
	member, pn, _, pinj, rinj, err := newClusterMember(sc, true)
	if err != nil {
		return nil, err
	}
	router, err := cluster.NewRouter(cluster.Config{
		Members:          []cluster.Member{member},
		FailureThreshold: 1,
	})
	if err != nil {
		return nil, fmt.Errorf("chaos: build router: %w", err)
	}
	res := &ClusterKillResult{}

	// Session creation can itself be torn; the retry lands on the
	// promoted replica and the dialogue starts there. The ids are
	// fixed, so a seed renders the same transcript in every run.
	id := "c000001"
	err = router.CreateSessionWithID(ctx, id)
	if errors.Is(err, cluster.ErrNodeDown) {
		res.TornKill = true
		id = "c000002"
		err = router.CreateSessionWithID(ctx, id)
	}
	if err != nil {
		return nil, fmt.Errorf("chaos: create cluster session: %w", err)
	}
	res.SessionID = id
	res.PreKill, err = fullPage(ctx, router, id, false)
	if err != nil {
		return nil, err
	}

	killed := res.TornKill
	for i := 0; i < len(turns); i++ {
		if !killed && res.Committed == sc.KillAfter {
			// The planned kill: the primary dies between turns, with
			// everything committed so far already shipped.
			pn.Kill()
			killed = true
		}
		_, aerr := router.Ask(ctx, id, turns[i])
		if errors.Is(aerr, cluster.ErrNodeDown) {
			// The kill moment (torn write mid-commit, or the clean kill's
			// first observed failure). The breaker trips at threshold 1,
			// the replica is promoted, and the same turn is re-asked once
			// — at the conversation level nothing was committed.
			if !killed {
				res.TornKill, killed = true, true
			}
			if res.Promoted == "" {
				res.Promoted, err = fullPage(ctx, router, id, false)
				if err != nil {
					return nil, fmt.Errorf("chaos: promoted read: %w", err)
				}
				res.PromotedAtKill = true
			}
			_, aerr = router.Ask(ctx, id, turns[i])
		}
		if aerr != nil {
			return nil, fmt.Errorf("chaos: cluster turn %d %q: %w", i, turns[i], aerr)
		}
		res.Committed++
		if !killed {
			res.PreKill, err = fullPage(ctx, router, id, false)
			if err != nil {
				return nil, err
			}
		}
	}
	if res.Promoted == "" {
		// The kill landed between turns and the next ask succeeded on
		// the promoted replica without an observed failure — read the
		// promoted state now. (Reachable only if no turn remained; keep
		// the field total regardless.)
		res.Promoted, err = fullPage(ctx, router, id, false)
		if err != nil {
			return nil, err
		}
	}
	res.Final, err = fullPage(ctx, router, id, false)
	if err != nil {
		return nil, err
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "seed=%d killafter=%d committed=%d torn=%t session=%s\n",
		sc.Seed, sc.KillAfter, res.Committed, res.TornKill, res.SessionID)
	fmt.Fprintf(&sb, "--- pre-kill\n%s--- promoted\n%s--- final\n%s", res.PreKill, res.Promoted, res.Final)
	for _, st := range router.Status(ctx) {
		fmt.Fprintf(&sb, "member %s: active=%s promoted=%t breaker=%s\n",
			st.Name, st.Active, st.Promoted, st.Breaker)
	}
	for _, phase := range []struct {
		name string
		inj  *faults.Injector
	}{{"primary", pinj}, {"replica", rinj}} {
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

// ClusterPartitionScenario configures one partition, heal and failover
// replay: the replica is partitioned away mid-dialogue, commits continue
// on the primary (replication degrades, writes never do), and the heal
// crosses the primary's compaction horizon — the replica adopts its
// shard root through chunk negotiation and catches up in bounded steps,
// observably stale mid-way, byte-identical at the end. Then the primary
// is killed, and the promoted replica, whose state below the horizon
// arrived only as negotiated chunks, finishes the dialogue.
type ClusterPartitionScenario struct {
	// Seed drives both systems and every fault draw.
	Seed int64
	// Rates are backend fault probabilities during turns.
	Rates faults.Rates
	// PartitionAfter is the committed-turn count before the partition
	// (default 3).
	PartitionAfter int
	// PartitionTurns is how many turns commit while the replica is
	// away (default 3). The partition must leave at least one turn for
	// the promoted replica.
	PartitionTurns int
	// PrimaryDir and ReplicaDir are the nodes' data directories.
	PrimaryDir, ReplicaDir string
	// SnapshotEvery is both stores' compaction cadence (default 4 —
	// small enough that the primary compacts past the replica's cursor
	// during the partition, so the heal ships the shard root, negotiates
	// its chunks, and resumes bounded frame catch-up on top of it; at 3
	// the shard root covers the whole partition, one ship step catches
	// the replica up, and its mid-catch-up page is never stale).
	SnapshotEvery int
}

// ClusterPartitionResult bundles one partition replay's outputs.
type ClusterPartitionResult struct {
	SessionID string
	// Committed is the total committed turns (every turn of the
	// dialogue — neither the partition nor the kill may lose one).
	Committed int
	// LagAtHeal is the replica's record lag the moment the partition
	// heals (> 0, or the partition did nothing).
	LagAtHeal int64
	// RootShipped reports whether the heal's first step adopted the
	// primary's shard root on the replica — the heal crossed the
	// compaction horizon through chunk negotiation.
	RootShipped bool
	// MidCatchUp is the replica-served page after one bounded ship
	// step — stamped stale, holding a committed prefix.
	MidCatchUp string
	// MidCatchUpStale reports whether that page carried the stamp.
	MidCatchUpStale bool
	// ChunksNegotiated is how many chunks the heal moved to the
	// replica, counted from before its first ship step (> 0, or the
	// versioned path never fired).
	ChunksNegotiated int
	// ShardRootsMatch reports whether, after the heal, both nodes'
	// version stores agree on the shard root head — commit hash
	// identity preserved across the ship.
	ShardRootsMatch bool
	// Healed is the primary's transcript after the heal, and
	// ReplicaHealed the caught-up replica's. Contract: they are equal.
	Healed, ReplicaHealed string
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

// ClusterPartitionHeal runs one partition scenario.
func ClusterPartitionHeal(ctx context.Context, sc ClusterPartitionScenario) (*ClusterPartitionResult, error) {
	if sc.PrimaryDir == "" || sc.ReplicaDir == "" {
		return nil, errors.New("chaos: ClusterPartitionHeal needs primary and replica data dirs")
	}
	if sc.SnapshotEvery <= 0 {
		sc.SnapshotEvery = 4
	}
	if sc.PartitionAfter <= 0 {
		sc.PartitionAfter = 3
	}
	if sc.PartitionTurns <= 0 {
		sc.PartitionTurns = 3
	}
	turns := SwissTurns()
	if sc.PartitionAfter+sc.PartitionTurns >= len(turns) {
		return nil, fmt.Errorf("chaos: partition window [%d,%d) leaves no post-kill turns in a %d-turn dialogue",
			sc.PartitionAfter, sc.PartitionAfter+sc.PartitionTurns, len(turns))
	}
	member, pn, rn, _, _, err := newClusterMember(ClusterScenario{
		Seed: sc.Seed, Rates: sc.Rates, PrimaryDir: sc.PrimaryDir,
		ReplicaDir: sc.ReplicaDir, SnapshotEvery: sc.SnapshotEvery}, false)
	if err != nil {
		return nil, err
	}
	pvs, rvs := pn.Store().Versions(), rn.Store().Versions()
	router, err := cluster.NewRouter(cluster.Config{
		Members:          []cluster.Member{member},
		FailureThreshold: 1,
	})
	if err != nil {
		return nil, fmt.Errorf("chaos: build router: %w", err)
	}
	res := &ClusterPartitionResult{}
	id := "c000001" // fixed, like ClusterKillRecover's
	if err := router.CreateSessionWithID(ctx, id); err != nil {
		return nil, fmt.Errorf("chaos: create cluster session: %w", err)
	}
	res.SessionID = id
	shard := rn.Store().ShardIndex(id)

	ask := func(i int) error {
		_, aerr := router.Ask(ctx, id, turns[i])
		if errors.Is(aerr, cluster.ErrNodeDown) {
			// The kill moment: the breaker trips at threshold 1, the
			// replica is promoted, and the turn is re-asked once.
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
	// Lag at heal, measured store-to-store: the committed records the
	// replica has never seen.
	res.LagAtHeal = pn.Store().ReplicationCursor(shard) - rn.Store().ReplicationCursor(shard)

	// One bounded ship step — the shard root and one frame: the replica
	// now KNOWS it is behind (the applied batch carries the primary's
	// cursor) and stamps its pages. Chunk growth on the replica from
	// here to the end of the catch-up measures what the heal moved.
	root, err := pvs.Head(sessionstore.ShardRoot(shard))
	if err != nil {
		return nil, fmt.Errorf("chaos: primary shard root: %w", err)
	}
	chunksBefore := rvs.NumChunks()
	if _, err := router.ShipStep(ctx, "m1", shard, 1); err != nil {
		return nil, fmt.Errorf("chaos: ship step: %w", err)
	}
	adopted, err := rvs.Log(sessionstore.ShardRoot(shard))
	if err != nil {
		return nil, fmt.Errorf("chaos: replica shard root: %w", err)
	}
	for _, c := range adopted {
		res.RootShipped = res.RootShipped || c.Hash == root.Hash
	}
	midPage, err := router.Transcript(ctx, id, 0, server.MaxPageLimit, true)
	if err != nil {
		return nil, fmt.Errorf("chaos: mid-catch-up read: %w", err)
	}
	res.MidCatchUpStale = midPage.Stale
	res.MidCatchUp = renderPage(midPage)

	if err := router.CatchUp(ctx, "m1"); err != nil {
		return nil, fmt.Errorf("chaos: catch up: %w", err)
	}
	res.ChunksNegotiated = rvs.NumChunks() - chunksBefore
	ph, perr := pvs.Head(sessionstore.ShardRoot(shard))
	rh, rerr := rvs.Head(sessionstore.ShardRoot(shard))
	res.ShardRootsMatch = perr == nil && rerr == nil && ph.Hash == rh.Hash && ph.Tree == rh.Tree
	if res.Healed, err = fullPage(ctx, router, id, false); err != nil {
		return nil, err
	}
	if res.ReplicaHealed, err = fullPage(ctx, router, id, true); err != nil {
		return nil, err
	}

	// Kill the primary; the next ask promotes the healed replica, which
	// finishes the dialogue.
	pn.Kill()
	for i := sc.PartitionAfter + sc.PartitionTurns; i < len(turns); i++ {
		if err := ask(i); err != nil {
			return nil, err
		}
	}
	if res.Final, err = fullPage(ctx, router, id, false); err != nil {
		return nil, err
	}

	// Per-turn version roots from the promoted replica: tree hashes,
	// not commit hashes, because the replica's commit log legitimately
	// starts at install time while tree addresses are content-equal
	// across nodes and across runs.
	log, err := rvs.Log(sessionstore.SessionRoot(id))
	if err != nil {
		return nil, fmt.Errorf("chaos: session versions on replica: %w", err)
	}
	var rl strings.Builder
	for _, c := range log {
		fmt.Fprintf(&rl, "turn=%d tree=%s\n", c.Turn, c.Tree)
	}
	res.RootLog = rl.String()

	var sb strings.Builder
	fmt.Fprintf(&sb, "seed=%d partitionAfter=%d partitionTurns=%d committed=%d lagAtHeal=%d rootShipped=%t midStale=%t negotiated=%d shardRootsMatch=%t session=%s\n",
		sc.Seed, sc.PartitionAfter, sc.PartitionTurns, res.Committed, res.LagAtHeal, res.RootShipped, res.MidCatchUpStale,
		res.ChunksNegotiated, res.ShardRootsMatch, res.SessionID)
	fmt.Fprintf(&sb, "--- mid-catch-up\n%s--- healed\n%s--- replica-healed\n%s--- final\n%s--- session roots\n%s",
		res.MidCatchUp, res.Healed, res.ReplicaHealed, res.Final, res.RootLog)
	for _, st := range router.Status(ctx) {
		fmt.Fprintf(&sb, "member %s: active=%s promoted=%t breaker=%s lag=%d\n",
			st.Name, st.Active, st.Promoted, st.Breaker, st.ReplicaLag)
	}
	res.Transcript = sb.String()
	return res, nil
}
