package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"

	"github.com/reliable-cda/cda/internal/obs"
	"github.com/reliable-cda/cda/internal/server"
	"github.com/reliable-cda/cda/internal/sessionstore"
	"github.com/reliable-cda/cda/internal/vstore"
)

// HTTPNode is a NodeClient over a real cdaserver's base URL — the
// implementation cmd/cdarouter wires in. Transport-level failures
// (connection refused, reset, timeout) wrap ErrNodeDown so the
// router's failover breaker sees them; a refusal the node answered
// with comes back as the typed error the node returned
// (server.DecodeError), because a node that answers 404 is alive.
type HTTPNode struct {
	name   string
	base   string
	client *http.Client
}

// NewHTTPNode builds a client for the node at base (e.g.
// "http://127.0.0.1:8081"). A nil client uses http.DefaultClient.
func NewHTTPNode(name, base string, client *http.Client) *HTTPNode {
	if client == nil {
		client = http.DefaultClient
	}
	return &HTTPNode{name: name, base: strings.TrimRight(base, "/"), client: client}
}

// Name implements NodeClient.
func (n *HTTPNode) Name() string { return n.name }

// do runs one request, decoding a 2xx JSON body into out (skipped
// when out is nil) and every other status through the server's
// error ↔ status table.
func (n *HTTPNode) do(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return fmt.Errorf("cluster: encode request to %s: %w", n.name, err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, n.base+path, rd)
	if err != nil {
		return fmt.Errorf("cluster: build request to %s: %w", n.name, err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := n.client.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return fmt.Errorf("%w: %s: %v", ErrNodeDown, n.name, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		if out == nil {
			_, err := io.Copy(io.Discard, resp.Body)
			return err
		}
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return fmt.Errorf("cluster: decode response from %s: %w", n.name, err)
		}
		return nil
	}
	return fmt.Errorf("node %s: %w", n.name, server.DecodeError(resp.StatusCode, resp.Header, resp.Body))
}

// CreateSession implements NodeClient.
func (n *HTTPNode) CreateSession(ctx context.Context, id string) error {
	return n.do(ctx, http.MethodPost, "/sessions", map[string]string{"id": id}, nil)
}

// Ask implements NodeClient. A traced ask (obs.WithTrace) asks the
// node for its trace.
func (n *HTTPNode) Ask(ctx context.Context, id, question string) (server.AskResponse, error) {
	var resp server.AskResponse
	path := "/sessions/" + url.PathEscape(id) + "/ask"
	if obs.TraceRequested(ctx) {
		path += "?trace=1"
	}
	err := n.do(ctx, http.MethodPost, path, server.AskRequest{Question: question}, &resp)
	return resp, err
}

// Transcript implements NodeClient. Zero offset/limit are omitted
// from the query so the node applies its own defaults (the server
// rejects an explicit limit=0).
func (n *HTTPNode) Transcript(ctx context.Context, id string, offset, limit int) (server.TranscriptPage, error) {
	var page server.TranscriptPage
	q := url.Values{}
	if offset > 0 {
		q.Set("offset", fmt.Sprint(offset))
	}
	if limit > 0 {
		q.Set("limit", fmt.Sprint(limit))
	}
	path := "/sessions/" + url.PathEscape(id)
	if enc := q.Encode(); enc != "" {
		path += "?" + enc
	}
	err := n.do(ctx, http.MethodGet, path, nil, &page)
	return page, err
}

// Health implements NodeClient.
func (n *HTTPNode) Health(ctx context.Context) (server.HealthReport, error) {
	var rep server.HealthReport
	err := n.do(ctx, http.MethodGet, "/healthz", nil, &rep)
	return rep, err
}

// Pull implements NodeClient.
func (n *HTTPNode) Pull(ctx context.Context, shard int, after int64, max int) (sessionstore.ShipBatch, error) {
	var batch sessionstore.ShipBatch
	path := fmt.Sprintf("/replication/%d?after=%d&max=%d", shard, after, max)
	err := n.do(ctx, http.MethodGet, path, nil, &batch)
	return batch, err
}

// Apply implements NodeClient.
func (n *HTTPNode) Apply(ctx context.Context, batch sessionstore.ShipBatch) (int64, error) {
	var out struct {
		Cursor int64 `json:"cursor"`
	}
	if err := n.do(ctx, http.MethodPost, "/replication/apply", batch, &out); err != nil {
		return 0, err
	}
	return out.Cursor, nil
}

// WantChunks implements NodeClient.
func (n *HTTPNode) WantChunks(ctx context.Context, root string, limit int) ([]string, error) {
	var out struct {
		Missing []string `json:"missing"`
	}
	err := n.do(ctx, http.MethodPost, "/chunks/want",
		server.WantChunksRequest{Root: root, Limit: limit}, &out)
	return out.Missing, err
}

// FetchChunks implements NodeClient.
func (n *HTTPNode) FetchChunks(ctx context.Context, hashes []string) ([]vstore.Packet, error) {
	var out struct {
		Packets []vstore.Packet `json:"packets"`
	}
	err := n.do(ctx, http.MethodPost, "/chunks/fetch",
		server.FetchChunksRequest{Hashes: hashes}, &out)
	return out.Packets, err
}

// PutChunks implements NodeClient.
func (n *HTTPNode) PutChunks(ctx context.Context, packets []vstore.Packet) error {
	return n.do(ctx, http.MethodPost, "/chunks/put",
		server.PutChunksRequest{Packets: packets}, nil)
}
