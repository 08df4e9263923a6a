package cluster

import (
	"context"
	"errors"
	"fmt"
	"regexp"
	"testing"

	"github.com/reliable-cda/cda/internal/server"
)

// TestRoutersDoNotReissueIDs: a second router in front of the nodes
// that hold the first router's sessions, and the first router rebuilt
// (what a restarted cdarouter is), each create sessions without a
// refusal, and no id repeats.
func TestRoutersDoNotReissueIDs(t *testing.T) {
	ctx := context.Background()
	sys := testSystem(1)
	var members []Member
	for _, name := range []string{"n1", "n2"} {
		m, _, _ := testMember(name, sys)
		members = append(members, m)
	}
	build := func() *Router {
		r, err := NewRouter(Config{Members: members})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	shape := regexp.MustCompile(`^c[a-z2-7]{6}$`)
	seen := map[string]string{}
	create := func(who string, r *Router) {
		for i := 0; i < 16; i++ {
			id, err := r.CreateSession(ctx)
			if err != nil {
				t.Fatalf("%s: create %d: %v", who, i, err)
			}
			if !shape.MatchString(id) {
				t.Errorf("%s: id %q is not c plus six base-32 characters", who, id)
			}
			if prev, dup := seen[id]; dup {
				t.Fatalf("%s re-issued %s, which %s created", who, id, prev)
			}
			seen[id] = who
		}
	}
	create("first router", build())
	create("second router", build())
	create("rebuilt router", build())
}

// takenNode refuses its first taken creates the way a node refuses an
// id it already holds.
type takenNode struct {
	NodeClient
	taken int
	ids   []string
}

func (n *takenNode) CreateSession(ctx context.Context, id string) error {
	n.ids = append(n.ids, id)
	if len(n.ids) <= n.taken {
		return fmt.Errorf("%w: session id already exists", server.ErrConflict)
	}
	return n.NodeClient.CreateSession(ctx, id)
}

// TestCreateSessionDrawsAgainOnATakenID: an id the node already holds
// is drawn again, a fresh id each time, and a node that refuses every
// draw is reported after idDraws of them.
func TestCreateSessionDrawsAgainOnATakenID(t *testing.T) {
	ctx := context.Background()
	for _, taken := range []int{3, idDraws} {
		m, _, _ := testMember("n1", testSystem(1))
		node := &takenNode{NodeClient: m.Primary, taken: taken}
		r, err := NewRouter(Config{Members: []Member{{Name: "n1", Primary: node}}})
		if err != nil {
			t.Fatal(err)
		}
		id, err := r.CreateSession(ctx)
		distinct := map[string]bool{}
		for _, d := range node.ids {
			distinct[d] = true
		}
		if len(distinct) != len(node.ids) {
			t.Errorf("taken=%d: a refused id was drawn again: %v", taken, node.ids)
		}
		if taken < idDraws {
			if err != nil || id != node.ids[taken] || len(node.ids) != taken+1 {
				t.Errorf("taken=%d: got %q, %v after draws %v", taken, id, err, node.ids)
			}
			continue
		}
		if !errors.Is(err, server.ErrConflict) || id != "" || len(node.ids) != idDraws {
			t.Errorf("taken=%d: got %q, %v after %d draws, want a conflict after %d", taken, id, err, len(node.ids), idDraws)
		}
	}
}
