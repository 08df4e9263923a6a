package cluster

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/reliable-cda/cda/internal/admission"
	"github.com/reliable-cda/cda/internal/core"
	"github.com/reliable-cda/cda/internal/resilience"
	"github.com/reliable-cda/cda/internal/sessionstore"
	"github.com/reliable-cda/cda/internal/workload"
)

func TestRingDeterministicPlacement(t *testing.T) {
	members := []string{"n2", "n1", "n3"}
	r1, err := NewRing(members, 64)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewRing([]string{"n3", "n2", "n1"}, 64) // order must not matter
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for i := 0; i < 3000; i++ {
		key := fmt.Sprintf("c%06d", i)
		o1, o2 := r1.Owner(key), r2.Owner(key)
		if o1 != o2 {
			t.Fatalf("placement differs for %s: %s vs %s", key, o1, o2)
		}
		counts[o1]++
	}
	for _, m := range r1.members {
		if counts[m] < 300 { // each of 3 members owns at least 10%
			t.Errorf("member %s owns only %d/3000 keys — ring badly skewed", m, counts[m])
		}
	}
}

func TestRingStabilityUnderMembershipChange(t *testing.T) {
	r3, err := NewRing([]string{"n1", "n2", "n3"}, 64)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewRing([]string{"n1", "n2"}, 64)
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	const keys = 3000
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("c%06d", i)
		before := r3.Owner(key)
		after := r2.Owner(key)
		if before != "n3" && before != after {
			t.Fatalf("key %s moved %s→%s though its owner never left", key, before, after)
		}
		if before != after {
			moved++
		}
	}
	if moved == 0 || moved > keys/2 {
		t.Errorf("removing one of three members moved %d/%d keys", moved, keys)
	}
}

func TestRingRejectsBadMembers(t *testing.T) {
	if _, err := NewRing(nil, 0); err == nil {
		t.Error("empty ring accepted")
	}
	if _, err := NewRing([]string{"a", "a"}, 0); err == nil {
		t.Error("duplicate member accepted")
	}
	if _, err := NewRing([]string{""}, 0); err == nil {
		t.Error("empty member name accepted")
	}
}

// testSystem builds one seeded Figure-1 system.
func testSystem(seed int64) *core.System {
	d := workload.NewSwissDomain(seed)
	return core.New(core.Config{DB: d.DB, Catalog: d.Catalog, KG: d.KG, Vocab: d.Vocab,
		Documents: d.Documents, Now: d.Now, Seed: seed})
}

// testMember builds a primary/replica pair of local nodes over memory
// stores sharing one seeded system.
func testMember(name string, sys *core.System) (Member, *LocalNode, *LocalNode) {
	p := NewLocalNode(name+"-primary", sessionstore.NewMemory(sessionstore.Config{Shards: 4}), sys)
	rep := NewLocalNode(name+"-replica", sessionstore.NewMemory(sessionstore.Config{Shards: 4}), sys)
	return Member{Name: name, Primary: p, Replica: rep}, p, rep
}

func testRouter(t *testing.T, cfg Config, names ...string) (*Router, map[string]*LocalNode, map[string]*LocalNode) {
	t.Helper()
	sys := testSystem(1)
	primaries := map[string]*LocalNode{}
	replicas := map[string]*LocalNode{}
	for _, name := range names {
		m, p, rep := testMember(name, sys)
		cfg.Members = append(cfg.Members, m)
		primaries[name] = p
		replicas[name] = rep
	}
	r, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r, primaries, replicas
}

func TestRouterRoutesAndReplicates(t *testing.T) {
	ctx := context.Background()
	r, primaries, replicas := testRouter(t, Config{}, "n1", "n2")
	var ids []string
	for i := 0; i < 6; i++ {
		id, err := r.CreateSession(ctx)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		if _, err := r.Ask(ctx, id, "how many barometer"); err != nil {
			t.Fatal(err)
		}
	}
	// Every session lives on its ring owner's primary AND is already
	// mirrored on the replica (synchronous post-write ship).
	for _, id := range ids {
		owner := r.ring.Owner(id)
		if _, status := primaries[owner].Store().Get(id); status != sessionstore.Found {
			t.Errorf("session %s missing on its owner %s", id, owner)
		}
		if _, status := replicas[owner].Store().Get(id); status != sessionstore.Found {
			t.Errorf("session %s not replicated on %s", id, owner)
		}
		pp, err := r.Transcript(ctx, id, 0, 100, false)
		if err != nil {
			t.Fatal(err)
		}
		rp, err := r.Transcript(ctx, id, 0, 100, true)
		if err != nil {
			t.Fatal(err)
		}
		if rp.Stale || rp.LagRecords != 0 {
			t.Errorf("caught-up replica page stamped stale: %+v", rp)
		}
		if fmt.Sprintf("%+v", pp) != fmt.Sprintf("%+v", rp) {
			t.Errorf("replica page diverged for %s:\nprimary: %+v\nreplica: %+v", id, pp, rp)
		}
	}
	for _, st := range r.Status(ctx) {
		if st.Promoted || st.ReplicaLag != 0 || st.ShipError != "" {
			t.Errorf("healthy member status = %+v", st)
		}
	}
}

func TestRouterPromotesOnPrimaryDeath(t *testing.T) {
	ctx := context.Background()
	r, primaries, _ := testRouter(t,
		Config{Breaker: resilience.BreakerConfig{FailureThreshold: 1}}, "n1")
	id, err := r.CreateSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Ask(ctx, id, "how many barometer"); err != nil {
		t.Fatal(err)
	}
	before, err := r.Transcript(ctx, id, 0, 100, false)
	if err != nil {
		t.Fatal(err)
	}

	primaries["n1"].Kill()
	if _, err := r.Ask(ctx, id, "and in Bern?"); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("ask on killed primary error = %v, want ErrNodeDown", err)
	}
	st := r.Status(ctx)[0]
	if !st.Promoted || st.Active != "n1-replica" {
		t.Fatalf("member not promoted after breaker trip: %+v", st)
	}
	// The promoted replica serves the byte-identical committed
	// transcript (the failed turn was never committed anywhere).
	after, err := r.Transcript(ctx, id, 0, 100, false)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", after) != fmt.Sprintf("%+v", before) {
		t.Fatalf("promoted transcript diverged:\nbefore: %+v\nafter: %+v", before, after)
	}
	// The re-ask lands on the promoted replica and commits there.
	if _, err := r.Ask(ctx, id, "and in Bern?"); err != nil {
		t.Fatalf("re-ask after promotion: %v", err)
	}
	page, err := r.Transcript(ctx, id, 0, 100, false)
	if err != nil {
		t.Fatal(err)
	}
	if page.Total != before.Total+2 {
		t.Errorf("post-promotion total = %d, want %d", page.Total, before.Total+2)
	}
	// New sessions keep being created — on the promoted node, with ids
	// that never collide with pre-failover ones.
	id2, err := r.CreateSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if id2 == id {
		t.Errorf("router re-issued id %s", id2)
	}
}

func TestProbePromotesIdlePrimary(t *testing.T) {
	ctx := context.Background()
	r, primaries, _ := testRouter(t,
		Config{Breaker: resilience.BreakerConfig{FailureThreshold: 2}}, "n1")
	r.Probe(ctx) // healthy probe: breaker stays closed
	primaries["n1"].Kill()
	r.Probe(ctx)
	if r.Status(ctx)[0].Promoted {
		t.Fatal("promoted after one failure with threshold 2")
	}
	r.Probe(ctx)
	if !r.Status(ctx)[0].Promoted {
		t.Fatal("not promoted after reaching the failure threshold")
	}
}

func TestRouterReplicaLagAndCatchUpAfterPartition(t *testing.T) {
	ctx := context.Background()
	r, _, replicas := testRouter(t, Config{}, "n1")
	id, err := r.CreateSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Ask(ctx, id, "how many barometer"); err != nil {
		t.Fatal(err)
	}

	replicas["n1"].SetPartitioned(true)
	// Commits keep succeeding — the replica being away degrades
	// replication, never the write path.
	for _, q := range []string{"and in Bern?", "how many employment"} {
		if _, err := r.Ask(ctx, id, q); err != nil {
			t.Fatalf("ask during partition: %v", err)
		}
	}
	st := r.Status(ctx)[0]
	if st.Promoted {
		t.Fatal("partitioned REPLICA must not trigger promotion")
	}
	if st.ShipError == "" {
		t.Error("status hides the replication failure")
	}
	// Reads during the partition fall back to the primary.
	page, err := r.Transcript(ctx, id, 0, 100, true)
	if err != nil {
		t.Fatalf("read during partition: %v", err)
	}
	if page.Total != 6 {
		t.Errorf("fallback read total = %d, want 6", page.Total)
	}

	replicas["n1"].SetPartitioned(false)
	// One bounded ship step is not enough — the replica is mid-catch-up
	// and its pages say so.
	caught, err := r.ShipStep(ctx, "n1", replicas["n1"].Store().ShardIndex(id), 1)
	if err != nil {
		t.Fatal(err)
	}
	if caught {
		t.Fatal("one frame cannot have caught the replica up")
	}
	mid, err := r.Transcript(ctx, id, 0, 100, true)
	if err != nil {
		t.Fatal(err)
	}
	if !mid.Stale || mid.Source != "n1-replica" || mid.LagRecords == 0 {
		t.Fatalf("mid-catch-up page not stamped: %+v", mid)
	}
	if err := r.CatchUp(ctx, "n1"); err != nil {
		t.Fatal(err)
	}
	final, err := r.Transcript(ctx, id, 0, 100, true)
	if err != nil {
		t.Fatal(err)
	}
	if final.Stale || final.Total != 6 {
		t.Fatalf("caught-up page = stale %v total %d", final.Stale, final.Total)
	}
	if st := r.Status(ctx)[0]; st.ReplicaLag != 0 || st.ShipError != "" {
		t.Errorf("caught-up status = %+v", st)
	}
}

func TestRouterAdmissionSheds(t *testing.T) {
	ctx := context.Background()
	clock := resilience.NewVirtualClock()
	r, _, _ := testRouter(t, Config{
		Clock:            clock,
		ClusterAdmission: &admission.Config{MaxInflight: -1, Rate: 0.5, Burst: 1},
	}, "n1")
	id, err := r.CreateSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// The create drained the single-token cluster bucket: the next
	// request sheds with the exact refill time.
	_, err = r.Ask(ctx, id, "how many barometer")
	var ov *admission.Overload
	if !errors.As(err, &ov) {
		t.Fatalf("error = %v, want *admission.Overload", err)
	}
	if !ov.Computed || ov.RetryAfter != 2*time.Second {
		t.Errorf("overload = computed %v retryAfter %s, want computed 2s", ov.Computed, ov.RetryAfter)
	}
	clock.Advance(2 * time.Second)
	if _, err := r.Ask(ctx, id, "how many barometer"); err != nil {
		t.Fatalf("ask after refill: %v", err)
	}
}

func TestNewRouterValidation(t *testing.T) {
	if _, err := NewRouter(Config{}); err == nil {
		t.Error("empty router accepted")
	}
	sys := testSystem(1)
	m, _, _ := testMember("n1", sys)
	if _, err := NewRouter(Config{Members: []Member{m, m}}); err == nil {
		t.Error("duplicate member accepted")
	}
	if _, err := NewRouter(Config{Members: []Member{{Name: "n1"}}}); err == nil {
		t.Error("member without primary accepted")
	}
}
