package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"github.com/reliable-cda/cda/internal/admission"
	"github.com/reliable-cda/cda/internal/core"
	"github.com/reliable-cda/cda/internal/resilience"
	"github.com/reliable-cda/cda/internal/server"
	"github.com/reliable-cda/cda/internal/sessionstore"
	"github.com/reliable-cda/cda/internal/workload"
)

func TestRingDeterministicPlacement(t *testing.T) {
	members := []string{"n2", "n1", "n3"}
	r1, err := NewRing(members)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewRing([]string{"n3", "n2", "n1"}) // order must not matter
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
	r3, err := NewRing([]string{"n1", "n2", "n3"})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewRing([]string{"n1", "n2"})
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
	if _, err := NewRing(nil); err == nil {
		t.Error("empty ring accepted")
	}
	if _, err := NewRing([]string{"a", "a"}); err == nil {
		t.Error("duplicate member accepted")
	}
	if _, err := NewRing([]string{""}); err == nil {
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
		Config{FailureThreshold: 1}, "n1")
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
		Config{FailureThreshold: 2}, "n1")
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

// TestReplicaReadFallsBackForASessionItNeverSaw: a replica partitioned
// when a session was created has never heard of it after the heal, and
// a replica read of the session is served by the primary, not refused
// with the replica's 404.
func TestReplicaReadFallsBackForASessionItNeverSaw(t *testing.T) {
	ctx := context.Background()
	r, _, replicas := testRouter(t, Config{}, "n1")
	replicas["n1"].SetPartitioned(true)
	id, err := r.CreateSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Ask(ctx, id, "how many barometer"); err != nil {
		t.Fatal(err)
	}
	replicas["n1"].SetPartitioned(false)
	want, err := r.Transcript(ctx, id, 0, 100, false)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Transcript(ctx, id, 0, 100, true)
	if err != nil {
		t.Fatalf("replica read of a session the primary acknowledged: %v", err)
	}
	if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
		t.Errorf("replica read = %+v, want the primary's %+v", got, want)
	}
}

// TestReplicaPageIsStampedAfterAFailedShip: while a member's last ship
// has failed, a page its replica serves is stamped stale with the
// replica's name, through the front door too, though the replica itself
// cannot know what it missed; a successful catch-up clears the stamp.
func TestReplicaPageIsStampedAfterAFailedShip(t *testing.T) {
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
	if _, err := r.Ask(ctx, id, "and in Bern?"); err != nil {
		t.Fatal(err)
	}
	replicas["n1"].SetPartitioned(false)
	page, err := r.Transcript(ctx, id, 0, 100, true)
	if err != nil {
		t.Fatal(err)
	}
	if page.Total != 2 || !page.Stale || page.Source != "n1-replica" {
		t.Errorf("replica page after a failed ship = total %d, stale %v, source %q; want 2, true, n1-replica", page.Total, page.Stale, page.Source)
	}
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/sessions/"+id+"?replica=1", nil))
	if rec.Code != http.StatusOK || rec.Header().Get("X-CDA-Stale") != "true" {
		t.Errorf("front door = %d, X-CDA-Stale %q; want 200, true", rec.Code, rec.Header().Get("X-CDA-Stale"))
	}
	if err := r.CatchUp(ctx, "n1"); err != nil {
		t.Fatal(err)
	}
	if page, err := r.Transcript(ctx, id, 0, 100, true); err != nil || page.Stale || page.Total != 4 {
		t.Errorf("caught-up replica page = %+v, %v; want 4 turns, unstamped", page, err)
	}
}

// TestReplicaPagesWhileAsking: router asks run while another goroutine
// pages the session from its replica, which applies each shipped turn
// as the page reads run; under -race neither touches what the other
// writes, and the replica ends with the primary's transcript.
func TestReplicaPagesWhileAsking(t *testing.T) {
	ctx := context.Background()
	r, _, _ := testRouter(t, Config{}, "n1")
	id, err := r.CreateSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := r.Transcript(ctx, id, 0, 100, true); err != nil {
				t.Errorf("replica page: %v", err)
				return
			}
		}
	}()
	questions := []string{"how many barometer", "and in Bern?", "how many employment"}
	for i := 0; i < 9; i++ {
		if _, err := r.Ask(ctx, id, questions[i%len(questions)]); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	<-done
	want, err := r.Transcript(ctx, id, 0, 100, false)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Transcript(ctx, id, 0, 100, true)
	if err != nil || want.Total != 18 || fmt.Sprint(got.Turns) != fmt.Sprint(want.Turns) {
		t.Errorf("replica page = %+v, %v; want the primary's 18 turns %+v", got, err, want)
	}
}

// applyCounter is a NodeClient that counts the Apply calls it passes
// on and how many of them the node refused.
type applyCounter struct {
	NodeClient
	applies, refused int
}

func (c *applyCounter) Apply(ctx context.Context, batch sessionstore.ShipBatch) (int64, error) {
	cur, err := c.NodeClient.Apply(ctx, batch)
	c.applies++
	if err != nil {
		c.refused++
	}
	return cur, err
}

// TestRouterHealsBelowTheHorizon: a replica partitioned past the
// primary's compaction horizon heals through CatchUp. The router
// negotiates the shipped shard root's chunks before it applies the
// batch, so the replica accepts every Apply it is sent.
func TestRouterHealsBelowTheHorizon(t *testing.T) {
	ctx := context.Background()
	sys := testSystem(1)
	p := NewLocalNode("n1-primary", sessionstore.NewMemory(sessionstore.Config{Shards: 1, SnapshotEvery: 4}), sys)
	rep := NewLocalNode("n1-replica", sessionstore.NewMemory(sessionstore.Config{Shards: 1, SnapshotEvery: 4}), sys)
	counted := &applyCounter{NodeClient: rep}
	r, err := NewRouter(Config{Members: []Member{{Name: "n1", Primary: p, Replica: counted}}})
	if err != nil {
		t.Fatal(err)
	}
	id, err := r.CreateSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ask := func(q string) {
		t.Helper()
		if _, err := r.Ask(ctx, id, q); err != nil {
			t.Fatalf("ask %q: %v", q, err)
		}
	}
	ask("how many barometer")
	rep.SetPartitioned(true)
	for _, q := range []string{"and in Bern?", "how many employment", "and in Zurich?", "how many barometer"} {
		ask(q)
	}
	rep.SetPartitioned(false)
	pvs, rvs := p.Store().Versions(), rep.Store().Versions()
	root, err := pvs.Head(sessionstore.ShardRoot(0))
	if err != nil {
		t.Fatalf("set-up: the primary never compacted: %v", err)
	}
	if cur := rep.Store().ReplicationCursor(0); cur >= int64(root.Turn) {
		t.Fatalf("set-up: replica at %d, not below the primary's horizon %d", cur, root.Turn)
	}

	counted.applies, counted.refused = 0, 0
	if err := r.CatchUp(ctx, "n1"); err != nil {
		t.Fatal(err)
	}
	if counted.applies == 0 || counted.refused != 0 {
		t.Errorf("heal sent %d applies, %d refused; want every one accepted", counted.applies, counted.refused)
	}
	if head, err := rvs.Head(sessionstore.ShardRoot(0)); err != nil || head.Hash != root.Hash {
		t.Errorf("replica shard root = %s, %v; want the primary's %s", head.Hash, err, root.Hash)
	}
	pp, err := r.Transcript(ctx, id, 0, 100, false)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := r.Transcript(ctx, id, 0, 100, true)
	if err != nil {
		t.Fatal(err)
	}
	if rp.Stale || rp.Total != 10 || fmt.Sprint(rp.Turns) != fmt.Sprint(pp.Turns) {
		t.Errorf("healed replica page = %+v, want the primary's %+v", rp, pp)
	}
}

// TestShipStepLeavesAPromotedMemberAlone: once a member is promoted,
// ShipStep ships nothing, as CatchUp does. The deposed primary may hold
// a turn it committed and never shipped; applying it on the node now
// serving the member would fork that node's transcripts.
func TestShipStepLeavesAPromotedMemberAlone(t *testing.T) {
	ctx := context.Background()
	r, primaries, replicas := testRouter(t, Config{FailureThreshold: 1}, "n1")
	id, err := r.CreateSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Ask(ctx, id, "how many barometer"); err != nil {
		t.Fatal(err)
	}
	// A turn the primary commits while the replica is away.
	replicas["n1"].SetPartitioned(true)
	if _, err := r.Ask(ctx, id, "and in Bern?"); err != nil {
		t.Fatal(err)
	}
	replicas["n1"].SetPartitioned(false)
	// The primary is partitioned until the member is promoted, then healed.
	primaries["n1"].SetPartitioned(true)
	if _, err := r.Ask(ctx, id, "how many employment"); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("ask on a partitioned primary: %v, want ErrNodeDown", err)
	}
	if !r.Status(ctx)[0].Promoted {
		t.Fatal("set-up: the member was not promoted")
	}
	primaries["n1"].SetPartitioned(false)

	st := replicas["n1"].Store()
	shard := st.ShardIndex(id)
	cursor := st.ReplicationCursor(shard)
	before, err := r.Transcript(ctx, id, 0, 100, false)
	if err != nil {
		t.Fatal(err)
	}
	caughtUp, err := r.ShipStep(ctx, "n1", shard, 0)
	if err != nil || !caughtUp {
		t.Fatalf("ShipStep on a promoted member = %v, %v; want true, nil", caughtUp, err)
	}
	after, err := r.Transcript(ctx, id, 0, 100, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.ReplicationCursor(shard); got != cursor || fmt.Sprintf("%+v", after) != fmt.Sprintf("%+v", before) {
		t.Errorf("ShipStep changed the promoted node: cursor %d -> %d\nbefore: %+v\nafter:  %+v", cursor, got, before, after)
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

// TestReplicaIdleClockFollowsShippedTurns: a replica's idle clock runs
// from the turns it is shipped, not from the session's creation, so its
// TTL sweep leaves a session its primary keeps live — and the replica
// keeps the same WAL as its primary.
func TestReplicaIdleClockFollowsShippedTurns(t *testing.T) {
	ctx := context.Background()
	const ttl = 30 * time.Minute
	clock := resilience.NewVirtualClock()
	sys := testSystem(1)
	store := func() *sessionstore.Store {
		return sessionstore.NewMemory(sessionstore.Config{Shards: 1, TTL: ttl, Clock: clock})
	}
	p, rep := NewLocalNode("n1-primary", store(), sys), NewLocalNode("n1-replica", store(), sys)
	r, err := NewRouter(Config{Clock: clock, Members: []Member{{Name: "n1", Primary: p, Replica: rep}}})
	if err != nil {
		t.Fatal(err)
	}
	id, err := r.CreateSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"how many barometer", "and in Bern?"} {
		if _, err := r.Ask(ctx, id, q); err != nil {
			t.Fatal(err)
		}
		clock.Advance(20 * time.Minute)
	}
	// Now 40 minutes after creation and 20 after the last turn.
	if n, err := rep.Store().SweepIdle(); n != 0 || err != nil {
		t.Errorf("the replica's sweep evicted %d sessions (err %v); its last turn is 20 minutes old", n, err)
	}
	if _, err := r.Ask(ctx, id, "how many barometer"); err != nil {
		t.Fatal(err)
	}
	if got, want := rep.Store().ReplicationCursor(0), p.Store().ReplicationCursor(0); got != want {
		t.Errorf("replica cursor %d, primary cursor %d", got, want)
	}
	page, err := rep.Transcript(ctx, id, 0, 0)
	if err != nil || page.Total != 6 || page.Stale {
		t.Fatalf("replica page = total %d stale %v, err %v; want 6 current turns", page.Total, page.Stale, err)
	}
}

// tornJournal tears every journal append once armed, the way an
// injected crash fault does.
type tornJournal struct{ armed atomic.Bool }

func (f *tornJournal) TornWrite(op string, b []byte) ([]byte, bool) {
	if op != "vstore.journal" || !f.armed.Load() {
		return b, false
	}
	return b[:len(b)/2], true
}

// TestTornWriteBehindASocketPromotesTheReplica: a primary whose journal
// append is torn mid-ask drops the connection, as a dying process does,
// so the router counts a node failure, promotes the replica, and the
// re-ask lands there.
func TestTornWriteBehindASocketPromotesTheReplica(t *testing.T) {
	ctx := context.Background()
	sys := testSystem(1)
	tear := &tornJournal{}
	st, err := sessionstore.Open(sessionstore.Config{Dir: t.TempDir(), Shards: 1, Faults: tear})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = st.Close() }) // the torn journal reports its crash
	ts := httptest.NewServer(server.NewWithOptions(sys, nil, 0, server.Options{Store: st, NodeName: "n1-primary"}).Handler())
	t.Cleanup(ts.Close)
	rep := NewLocalNode("n1-replica", sessionstore.NewMemory(sessionstore.Config{Shards: 1}), sys)
	r, err := NewRouter(Config{FailureThreshold: 1,
		Members: []Member{{Name: "n1", Primary: NewHTTPNode("n1-primary", ts.URL, nil), Replica: rep}}})
	if err != nil {
		t.Fatal(err)
	}
	id, err := r.CreateSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Ask(ctx, id, "how many barometer"); err != nil {
		t.Fatal(err)
	}
	tear.armed.Store(true)
	if _, err := r.Ask(ctx, id, "and in Bern?"); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("ask on a torn write = %v, want ErrNodeDown", err)
	}
	if st := r.Status(ctx)[0]; !st.Promoted || st.Active != "n1-replica" {
		t.Fatalf("member not promoted after a torn write: %+v", st)
	}
	if _, err := r.Ask(ctx, id, "and in Bern?"); err != nil {
		t.Fatalf("re-ask after promotion: %v", err)
	}
	if got := rep.Store().ReplicationCursor(0); got == 0 {
		t.Error("the replica never held the session")
	}
	page, err := r.Transcript(ctx, id, 0, 0, false)
	if err != nil || page.Total != 4 {
		t.Fatalf("promoted transcript = %d turns, err %v; want the first pair and the re-ask", page.Total, err)
	}
}
