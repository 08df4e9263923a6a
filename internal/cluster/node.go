package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"github.com/reliable-cda/cda/internal/core"
	"github.com/reliable-cda/cda/internal/server"
	"github.com/reliable-cda/cda/internal/sessionstore"
	"github.com/reliable-cda/cda/internal/vstore"
)

// ErrNodeDown marks a node-level failure: the process is gone,
// partitioned away, or refusing connections — as opposed to an
// application error (unknown session, bad question) the node itself
// produced while healthy. The router's failover breaker counts only
// wrapped ErrNodeDown failures; application errors pass through
// without tripping promotion.
//
// It wraps server.ErrUnavailable, so the front door answers it 503:
// the member is mid-failover and the request is safe to retry.
var ErrNodeDown = fmt.Errorf("cluster: node unreachable: %w", server.ErrUnavailable)

// NodeClient is one cdaserver process as the router sees it. The two
// implementations are LocalNode (in-process, for tests and the chaos
// harness — with kill and partition switches) and HTTPNode (a real
// node over its base URL, for cmd/cdarouter).
type NodeClient interface {
	// Name identifies the node in health reports and stale stamps.
	Name() string
	// Shards is the node's store shard count (placement protocol).
	Shards() int
	// CreateSession creates a session under the router-chosen id.
	CreateSession(ctx context.Context, id string) error
	// Ask runs one turn against a session and commits it durably.
	Ask(ctx context.Context, id, question string) (server.AskResponse, error)
	// Transcript reads one page of a session's transcript. A node whose
	// store lags its primary stamps the page stale.
	Transcript(ctx context.Context, id string, offset, limit int) (server.TranscriptPage, error)
	// Health returns the node's replication health report.
	Health(ctx context.Context) (server.HealthReport, error)
	// Pull fetches one shard's committed WAL frames after a cursor.
	Pull(ctx context.Context, shard int, after int64, max int) (sessionstore.ShipBatch, error)
	// Apply installs a pulled batch, returning the shard's new cursor.
	Apply(ctx context.Context, batch sessionstore.ShipBatch) (int64, error)
	// WantChunks lists up to limit chunks missing from the node's
	// version store under the given root — the replica-side half of
	// catch-up negotiation.
	WantChunks(ctx context.Context, root string, limit int) ([]string, error)
	// FetchChunks serves chunk packets by hash from the node's version
	// store — the primary-side half.
	FetchChunks(ctx context.Context, hashes []string) ([]vstore.Packet, error)
	// PutChunks stores shipped packets into the node's version store
	// (each re-hashed on receipt).
	PutChunks(ctx context.Context, packets []vstore.Packet) error
}

// LocalNode is an in-process node: a server.Server over a store and
// the system that answers its questions, behind the failure switches
// the chaos harness flips. It adds nothing to the node API but that
// gate: every method honours context cancellation, reports ErrNodeDown
// once killed or while partitioned, and otherwise is the server's own.
type LocalNode struct {
	name string
	srv  *server.Server

	mu          sync.Mutex
	killed      bool
	partitioned bool
}

// NewLocalNode wraps a store and system as a node.
func NewLocalNode(name string, store *sessionstore.Store, sys *core.System) *LocalNode {
	return &LocalNode{name: name,
		srv: server.NewWithOptions(sys, nil, 0, server.Options{Store: store, NodeName: name})}
}

// Kill marks the node dead — permanently, like a crashed process. A
// torn WAL write inside Ask kills the node implicitly the same way.
func (n *LocalNode) Kill() {
	n.mu.Lock()
	n.killed = true
	n.mu.Unlock()
}

// SetPartitioned isolates the node from the router (reversible,
// unlike Kill): every call fails with ErrNodeDown until healed.
func (n *LocalNode) SetPartitioned(p bool) {
	n.mu.Lock()
	n.partitioned = p
	n.mu.Unlock()
}

// Store exposes the node's store (chaos assertions).
func (n *LocalNode) Store() *sessionstore.Store { return n.srv.Store() }

// reachable folds the kill/partition switches and the context into
// one gate every method passes first.
func (n *LocalNode) reachable(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.killed {
		return fmt.Errorf("%w: %s killed", ErrNodeDown, n.name)
	}
	if n.partitioned {
		return fmt.Errorf("%w: %s partitioned", ErrNodeDown, n.name)
	}
	return nil
}

// gated runs one server call behind the gate. A store-level simulated
// crash — the WAL append torn mid-write, which in a real deployment is
// the process dying with it — becomes node death.
func gated[T any](ctx context.Context, n *LocalNode, call func() (T, error)) (T, error) {
	var zero T
	if err := n.reachable(ctx); err != nil {
		return zero, err
	}
	v, err := call()
	if errors.Is(err, sessionstore.ErrCrashed) {
		n.Kill()
		return zero, fmt.Errorf("%w: %s crashed mid-append", ErrNodeDown, n.name)
	}
	if err != nil {
		return zero, err
	}
	return v, nil
}

// Name implements NodeClient.
func (n *LocalNode) Name() string { return n.name }

// Shards implements NodeClient.
func (n *LocalNode) Shards() int { return n.Store().Shards() }

// CreateSession implements NodeClient.
func (n *LocalNode) CreateSession(ctx context.Context, id string) error {
	_, err := gated(ctx, n, func() (struct{}, error) {
		return struct{}{}, n.srv.CreateSessionWithID(ctx, id)
	})
	return err
}

// Ask implements NodeClient.
func (n *LocalNode) Ask(ctx context.Context, id, question string) (server.AskResponse, error) {
	return gated(ctx, n, func() (server.AskResponse, error) { return n.srv.Ask(ctx, id, question) })
}

// Transcript implements NodeClient.
func (n *LocalNode) Transcript(ctx context.Context, id string, offset, limit int) (server.TranscriptPage, error) {
	return gated(ctx, n, func() (server.TranscriptPage, error) {
		return n.srv.Transcript(ctx, id, offset, limit, false)
	})
}

// Health implements NodeClient.
func (n *LocalNode) Health(ctx context.Context) (server.HealthReport, error) {
	return gated(ctx, n, func() (server.HealthReport, error) { return n.srv.Health(), nil })
}

// Pull implements NodeClient.
func (n *LocalNode) Pull(ctx context.Context, shard int, after int64, max int) (sessionstore.ShipBatch, error) {
	return gated(ctx, n, func() (sessionstore.ShipBatch, error) { return n.srv.Pull(shard, after, max) })
}

// Apply implements NodeClient.
func (n *LocalNode) Apply(ctx context.Context, batch sessionstore.ShipBatch) (int64, error) {
	return gated(ctx, n, func() (int64, error) { return n.srv.Apply(batch) })
}

// WantChunks implements NodeClient.
func (n *LocalNode) WantChunks(ctx context.Context, root string, limit int) ([]string, error) {
	return gated(ctx, n, func() ([]string, error) { return n.srv.WantChunks(root, limit) })
}

// FetchChunks implements NodeClient.
func (n *LocalNode) FetchChunks(ctx context.Context, hashes []string) ([]vstore.Packet, error) {
	return gated(ctx, n, func() ([]vstore.Packet, error) { return n.srv.FetchChunks(hashes) })
}

// PutChunks implements NodeClient.
func (n *LocalNode) PutChunks(ctx context.Context, packets []vstore.Packet) error {
	_, err := gated(ctx, n, func() (struct{}, error) { return struct{}{}, n.srv.PutChunks(packets) })
	return err
}
