package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"

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

// NodeClient is one cdaserver process as the router sees it. Its one
// implementation is HTTPNode, over a real node's base URL or, as a
// LocalNode, over the node's handler in process.
type NodeClient interface {
	// Name identifies the node in health reports and stale stamps.
	Name() string
	// CreateSession creates a session under the router-chosen id.
	CreateSession(ctx context.Context, id string) error
	// Ask runs one turn against a session and commits it durably.
	Ask(ctx context.Context, id, question string) (server.AskResponse, error)
	// Transcript reads one page of a session's transcript. A node whose
	// store lags its primary stamps the page stale.
	Transcript(ctx context.Context, id string, offset, limit int) (server.TranscriptPage, error)
	// Health returns the node's replication health report.
	Health(ctx context.Context) (server.HealthReport, error)
	// Pull fetches one shard's committed record frames after a cursor.
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

// LocalNode is an in-process node for tests, the chaos harness and the
// load harness: an HTTPNode at http://<name> whose transport serves the
// node's own Handler() in the caller's goroutine, so every call crosses
// the same JSON, status table and server.DecodeError a real node's
// does. The transport holds the failure switches the chaos harness
// flips.
type LocalNode struct {
	*HTTPNode
	store *sessionstore.Store
	wire  *inProcess
}

// NewLocalNode serves a store and the system that answers its
// questions as a node.
func NewLocalNode(name string, store *sessionstore.Store, sys *core.System) *LocalNode {
	srv := server.NewWithOptions(sys, nil, 0, server.Options{Store: store, NodeName: name})
	wire := &inProcess{handler: srv.Handler()}
	return &LocalNode{HTTPNode: NewHTTPNode(name, "http://"+name, &http.Client{Transport: wire}),
		store: store, wire: wire}
}

// Kill marks the node dead — permanently, like a crashed process. A
// handler that aborts its response (a torn journal write) kills the node
// the same way.
func (n *LocalNode) Kill() { n.wire.killed.Store(true) }

// SetPartitioned isolates the node from the router (reversible,
// unlike Kill): every call fails with ErrNodeDown until healed.
func (n *LocalNode) SetPartitioned(p bool) { n.wire.partitioned.Store(p) }

// Store exposes the node's store (chaos assertions).
func (n *LocalNode) Store() *sessionstore.Store { return n.store }

// inProcess is an http.RoundTripper that answers a request by running
// the node's handler into a recorder: no socket, no port and no
// goroutine. A dead or partitioned node fails the round trip, which
// HTTPNode reports as ErrNodeDown.
type inProcess struct {
	handler             http.Handler
	killed, partitioned atomic.Bool
}

// RoundTrip implements http.RoundTripper.
func (t *inProcess) RoundTrip(req *http.Request) (resp *http.Response, err error) {
	// A handler may replace the body (http.MaxBytesReader); a
	// RoundTripper leaves the caller's request as it was, and closes
	// its body.
	in := req.Clone(req.Context())
	if in.Body == nil {
		in.Body = http.NoBody
	}
	defer in.Body.Close()
	switch {
	case req.Context().Err() != nil:
		return nil, req.Context().Err()
	case t.killed.Load():
		return nil, errors.New("connection refused: the node was killed")
	case t.partitioned.Load():
		return nil, errors.New("no route to the node: partitioned")
	}
	defer func() {
		switch p := recover(); p {
		case nil:
		case http.ErrAbortHandler:
			// A real server closes the connection on an aborted response;
			// here the process it stands for is dead.
			t.killed.Store(true)
			resp, err = nil, errors.New("connection dropped mid-response: the node died")
		default:
			// cdalint:ignore bare-panic -- re-raises the handler's own panic unchanged; only the abort is a dropped connection.
			panic(p)
		}
	}()
	rec := httptest.NewRecorder()
	t.handler.ServeHTTP(rec, in)
	return rec.Result(), nil
}
