package main

import (
	"context"
	"testing"
	"time"

	"github.com/reliable-cda/cda/internal/cluster"
	"github.com/reliable-cda/cda/internal/core"
	"github.com/reliable-cda/cda/internal/sessionstore"
	"github.com/reliable-cda/cda/internal/workload"
)

// TestCatchUpLoopHealsAFailedShip: a replica that was partitioned when
// a turn was shipped reports no lag — it never heard of the batch it
// missed — and its shard gets no further writes. The catch-up loop must
// heal it anyway: the replica's shard cursor reaches the primary's.
func TestCatchUpLoopHealsAFailedShip(t *testing.T) {
	ctx := context.Background()
	d := workload.NewSwissDomain(1)
	sys := core.New(core.Config{DB: d.DB, Catalog: d.Catalog, KG: d.KG, Vocab: d.Vocab,
		Documents: d.Documents, Now: d.Now, Seed: 1})
	p := cluster.NewLocalNode("n1-primary", sessionstore.NewMemory(sessionstore.Config{Shards: 1}), sys)
	rep := cluster.NewLocalNode("n1-replica", sessionstore.NewMemory(sessionstore.Config{Shards: 1}), sys)
	router, err := cluster.NewRouter(cluster.Config{Members: []cluster.Member{{Name: "n1", Primary: p, Replica: rep}}})
	if err != nil {
		t.Fatal(err)
	}
	id, err := router.CreateSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := router.Ask(ctx, id, "how many barometer"); err != nil {
		t.Fatal(err)
	}
	rep.SetPartitioned(true)
	if _, err := router.Ask(ctx, id, "and in Bern?"); err != nil {
		t.Fatal(err)
	}
	rep.SetPartitioned(false)
	want := p.Store().ReplicationCursor(0)
	if got := rep.Store().ReplicationCursor(0); got >= want {
		t.Fatalf("set-up: the replica is at %d, the primary at %d; the ship did not fail", got, want)
	}

	loopCtx, stop := context.WithCancel(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		runLoops(loopCtx, router, 0, time.Millisecond)
	}()
	defer func() {
		stop()
		<-done
	}()
	deadline := time.After(5 * time.Second)
	for rep.Store().ReplicationCursor(0) < want {
		select {
		case <-deadline:
			t.Fatalf("the catch-up loop left the replica at %d, the primary at %d", rep.Store().ReplicationCursor(0), want)
		case <-time.After(time.Millisecond):
		}
	}
}
