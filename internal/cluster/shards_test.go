package cluster

import (
	"context"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"github.com/reliable-cda/cda/internal/server"
	"github.com/reliable-cda/cda/internal/sessionstore"
)

// TestHTTPRouterLearnsTheNodesShardCount: a router told nothing of how
// its nodes shard reads it from their health reports, so every session
// created and asked through it over HTTP reaches the replica, whatever
// shard it lands in.
func TestHTTPRouterLearnsTheNodesShardCount(t *testing.T) {
	ctx := context.Background()
	node := func(name string) (*HTTPNode, *sessionstore.Store) {
		st := sessionstore.NewMemory(sessionstore.Config{Shards: 8})
		srv := server.NewWithOptions(testSystem(1), nil, 0, server.Options{Store: st, NodeName: name})
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		return NewHTTPNode(name, ts.URL, nil), st
	}
	primary, _ := node("n1-primary")
	replica, rst := node("n1-replica")
	r, err := NewRouter(Config{Members: []Member{{Name: "n1", Primary: primary, Replica: replica}}})
	if err != nil {
		t.Fatal(err)
	}
	// Four clients and a catch-up run at once: the first ships race to
	// learn the count.
	ids := make([]string, 16)
	var wg sync.WaitGroup
	for c := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < len(ids); i += 4 {
				id, err := r.CreateSession(ctx)
				if err == nil {
					_, err = r.Ask(ctx, id, "how many barometer")
				}
				if err != nil {
					t.Error(err)
					return
				}
				ids[i] = id
			}
		}()
	}
	if err := r.CatchUp(ctx, "n1"); err != nil {
		t.Error(err)
	}
	wg.Wait()
	if err := r.CatchUp(ctx, "n1"); err != nil {
		t.Fatal(err)
	}
	var missing []string
	for _, id := range ids {
		e, status := rst.Get(id)
		if status != sessionstore.Found {
			missing = append(missing, id)
			continue
		}
		if _, n := e.Turns(0, 0); n != 2 {
			t.Errorf("session %s: the replica holds %d turns, want 2", id, n)
		}
	}
	if len(missing) > 0 {
		t.Errorf("%d of %d sessions never reached the replica: %v", len(missing), len(ids), missing)
	}
	if st := r.Status(ctx)[0]; st.ShipError != "" || st.ReplicaLag != 0 {
		t.Errorf("member status = %+v, want no ship error and no lag", st)
	}
}

// TestPairThatShardsDifferentlyShipsNothing: a member whose primary has
// 4 shards and whose replica has 8 would file each session under
// another shard on each side. The router ships nothing between them,
// says why with both counts in Status, and stamps a replica-preferred
// page stale.
func TestPairThatShardsDifferentlyShipsNothing(t *testing.T) {
	ctx := context.Background()
	sys := testSystem(1)
	p := NewLocalNode("n1-primary", sessionstore.NewMemory(sessionstore.Config{Shards: 4}), sys)
	rep := NewLocalNode("n1-replica", sessionstore.NewMemory(sessionstore.Config{Shards: 8}), sys)
	r, err := NewRouter(Config{Members: []Member{{Name: "n1", Primary: p, Replica: rep}}})
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
	if err := r.CatchUp(ctx, "n1"); err == nil {
		t.Error("CatchUp between a 4-shard primary and an 8-shard replica succeeded")
	}
	if _, err := r.ShipStep(ctx, "n1", 0, 0); err == nil {
		t.Error("ShipStep between a 4-shard primary and an 8-shard replica succeeded")
	}
	if n := rep.Store().Len(); n != 0 {
		t.Errorf("the replica holds %d sessions; nothing should have shipped", n)
	}
	for shard := range rep.Store().Shards() {
		if c := rep.Store().ReplicationCursor(shard); c != 0 {
			t.Errorf("the replica's shard %d is at cursor %d; nothing should have shipped", shard, c)
		}
	}
	st := r.Status(ctx)[0]
	if !strings.Contains(st.ShipError, "has 4 shards") || !strings.Contains(st.ShipError, "has 8") {
		t.Errorf("ship error = %q, want one naming both shard counts", st.ShipError)
	}
	// A copy of the session the replica holds from elsewhere is served,
	// and stamped: the router knows the replica cannot be current.
	if err := rep.CreateSession(ctx, id); err != nil {
		t.Fatal(err)
	}
	page, err := r.Transcript(ctx, id, 0, 100, true)
	if err != nil {
		t.Fatal(err)
	}
	if !page.Stale || page.Source != "n1-replica" {
		t.Errorf("replica-preferred page = %+v, want it stamped stale by n1-replica", page)
	}
}
