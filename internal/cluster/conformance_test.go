package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/reliable-cda/cda/internal/admission"
	"github.com/reliable-cda/cda/internal/resilience"
	"github.com/reliable-cda/cda/internal/server"
	"github.com/reliable-cda/cda/internal/sessionstore"
)

// The session API's conformance table: one list of request → expected
// (status, headers, body) fixtures, run against two front doors —
// a node's own Handler(), and the router's Handler() over HTTPNodes to
// such nodes — in the style of a client-compatibility suite: the
// client cannot tell which one it is talking to. Every fixture gets a
// fresh world per column, and unless it says its body names a
// column-specific id, the two columns' bodies must be byte-identical.

const (
	confShards = 2
	confTTL    = 30 * time.Minute
	confQ      = "how many barometer"
)

// world is one primary/replica pair of real node handlers on one
// virtual clock, a router over HTTPNodes to them, and the base URL
// under test.
type world struct {
	t       *testing.T
	clock   *resilience.VirtualClock
	adm     *admission.Controller // the primary's gate: 1 ask/s, burst 1
	primary *httptest.Server
	replica *httptest.Server
	router  *Router
	front   string
}

func newWorld(t *testing.T, routed bool) *world {
	t.Helper()
	w := &world{t: t, clock: resilience.NewVirtualClock()}
	w.adm = admission.New(admission.Config{Shards: confShards, Rate: 1, Burst: 1, Clock: w.clock})
	node := func(name string, adm *admission.Controller) *httptest.Server {
		st := sessionstore.NewMemory(sessionstore.Config{Shards: confShards, TTL: confTTL, Clock: w.clock})
		srv := server.NewWithOptions(testSystem(1), nil, 0,
			server.Options{Store: st, Admission: adm, NodeName: name})
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		return ts
	}
	w.primary, w.replica = node("n1-primary", w.adm), node("n1-replica", nil)
	var err error
	w.router, err = NewRouter(Config{Clock: w.clock, Members: []Member{{Name: "n1",
		Primary: NewHTTPNode("n1-primary", w.primary.URL, confShards, nil),
		Replica: NewHTTPNode("n1-replica", w.replica.URL, confShards, nil)}}})
	if err != nil {
		t.Fatal(err)
	}
	w.front = w.primary.URL
	if routed {
		fd := httptest.NewServer(w.router.Handler())
		t.Cleanup(fd.Close)
		w.front = fd.URL
	}
	return w
}

func (w *world) do(method, url, body string) (*http.Response, []byte) {
	w.t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		w.t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		w.t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		w.t.Fatal(err)
	}
	return resp, data
}

// create makes a session through the front door.
func (w *world) create() string {
	w.t.Helper()
	resp, body := w.do("POST", w.front+"/sessions", "")
	var out struct{ ID string }
	if err := json.Unmarshal(body, &out); err != nil || resp.StatusCode != http.StatusCreated || out.ID == "" {
		w.t.Fatalf("setup create: %d %s", resp.StatusCode, body)
	}
	return out.ID
}

// ask commits n turns at base (the front door, or the primary itself
// to get behind the router's back), with a second of think time after
// each so set-up never trips the primary's rate limit.
func (w *world) ask(base, id string, n int) {
	w.t.Helper()
	for i := 0; i < n; i++ {
		resp, body := w.do("POST", base+"/sessions/"+id+"/ask", `{"question":"`+confQ+`"}`)
		if resp.StatusCode != http.StatusOK {
			w.t.Fatalf("setup ask: %d %s", resp.StatusCode, body)
		}
		w.clock.Advance(time.Second)
	}
}

// session is the common set-up: a session with two committed turns.
func session(w *world) string {
	id := w.create()
	w.ask(w.front, id, 2)
	return id
}

// replicated is session plus a replica that holds all of it — which
// the router did turn by turn, and a bare node needs done for it.
func replicated(w *world) string {
	id := session(w)
	if err := w.router.CatchUp(context.Background(), "n1"); err != nil {
		w.t.Fatal(err)
	}
	return id
}

// matcher checks a response body.
type matcher func(t *testing.T, body []byte)

// refusal matches the error envelope: exactly one "error" member,
// whose text contains want.
func refusal(want string) matcher {
	return func(t *testing.T, body []byte) {
		t.Helper()
		var got map[string]any
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatalf("body is not JSON: %s", body)
		}
		msg, _ := got["error"].(string)
		if len(got) != 1 || !strings.Contains(msg, want) {
			t.Errorf("body = %s, want only an error containing %q", body, want)
		}
	}
}

// pageIs matches a TranscriptPage window; stale pages must name their
// source and lag, current ones must carry no stamp at all.
func pageIs(total, offset, limit, turns int, stale bool) matcher {
	return func(t *testing.T, body []byte) {
		t.Helper()
		var p server.TranscriptPage
		if err := json.Unmarshal(body, &p); err != nil {
			t.Fatalf("body is not a page: %s", body)
		}
		if p.Total != total || p.Offset != offset || p.Limit != limit || len(p.Turns) != turns {
			t.Errorf("page = total %d offset %d limit %d turns %d, want %d/%d/%d/%d",
				p.Total, p.Offset, p.Limit, len(p.Turns), total, offset, limit, turns)
		}
		if !bytes.Contains(body, []byte(`"turns":[`)) {
			t.Errorf("turns must encode as an array, even when empty: %s", body)
		}
		if stale != p.Stale || stale != (p.Source == "n1-replica") || stale != (p.LagRecords > 0) ||
			stale != bytes.Contains(body, []byte(`"stale"`)) {
			t.Errorf("staleness stamp = stale %v source %q lag %d, want stale %v: %s",
				p.Stale, p.Source, p.LagRecords, stale, body)
		}
	}
}

// annotated matches an answer that carries the paper's annotations.
func annotated(t *testing.T, body []byte) {
	t.Helper()
	var a server.AskResponse
	if err := json.Unmarshal(body, &a); err != nil {
		t.Fatalf("body is not an answer: %s", body)
	}
	if a.Text == "" || a.Confidence <= 0 || a.Confidence > 1 || len(a.Sources) == 0 || a.Provenance == "" {
		t.Errorf("answer lacks annotations: %s", body)
	}
}

// created matches {"id": want}; an empty want takes any id.
func created(want string) matcher {
	return func(t *testing.T, body []byte) {
		t.Helper()
		var got map[string]string
		if err := json.Unmarshal(body, &got); err != nil || len(got) != 1 || got["id"] == "" ||
			want != "" && got["id"] != want {
			t.Errorf("body = %s, want only an id %q", body, want)
		}
	}
}

// fixture is one row. {id} in path stands for the session setup made;
// a header expected "" must be absent.
type fixture struct {
	name               string
	setup              func(w *world) string
	method, path, body string
	status             int
	header             map[string]string
	match              matcher
	routerOnly         bool // no node answers for a node that is down
	idInBody           bool // the body names an id only this column allocates
}

var conformance = []fixture{
	{name: "create", method: "POST", path: "/sessions",
		status: 201, match: created(""), idInBody: true},
	{name: "create under a chosen id", method: "POST", path: "/sessions", body: `{"id":"picked"}`,
		status: 201, match: created("picked")},
	{name: "create under a taken id", method: "POST", path: "/sessions", body: `{"id":"{id}"}`,
		setup: session, status: 409, match: refusal("already exists")},
	{name: "create with malformed JSON", method: "POST", path: "/sessions", body: `{"id":`,
		status: 400, match: refusal("invalid JSON")},

	{name: "ask", method: "POST", path: "/sessions/{id}/ask", body: `{"question":"` + confQ + `"}`,
		setup: session, status: 200, match: annotated},
	{name: "ask on unknown session", method: "POST", path: "/sessions/nope/ask", body: `{"question":"` + confQ + `"}`,
		status: 404, match: refusal("unknown session")},
	{name: "ask on evicted session", method: "POST", path: "/sessions/{id}/ask", body: `{"question":"` + confQ + `"}`,
		setup:  func(w *world) string { id := session(w); w.clock.Advance(confTTL + time.Minute); return id },
		status: 410, match: refusal("evicted")},
	{name: "ask with blank question", method: "POST", path: "/sessions/{id}/ask", body: `{"question":" \t"}`,
		setup: session, status: 400, match: refusal("must not be empty")},
	{name: "ask with malformed JSON", method: "POST", path: "/sessions/{id}/ask", body: `{"question":`,
		setup: session, status: 400, match: refusal("invalid JSON")},
	{name: "ask shed by the node", method: "POST", path: "/sessions/{id}/ask", body: `{"question":"` + confQ + `"}`,
		setup: func(w *world) string {
			id := session(w)
			// Another client takes the shard's one token this second.
			release, err := w.adm.Admit(sessionstore.ShardIndexFor(id, confShards))
			if err != nil {
				w.t.Fatal(err)
			}
			release()
			return id
		},
		status: 429, header: map[string]string{"Retry-After": "1"}, match: refusal("overloaded (rate limit")},

	{name: "transcript", method: "GET", path: "/sessions/{id}",
		setup: session, status: 200, header: map[string]string{"X-CDA-Stale": ""},
		match: pageIs(4, 0, server.DefaultPageLimit, 4, false)},
	{name: "transcript window", method: "GET", path: "/sessions/{id}?offset=1&limit=2",
		setup: session, status: 200, match: pageIs(4, 1, 2, 2, false)},
	{name: "transcript window past the end", method: "GET", path: "/sessions/{id}?offset=9",
		setup: session, status: 200, match: pageIs(4, 9, server.DefaultPageLimit, 0, false)},
	{name: "transcript limit above the max is clamped", method: "GET", path: "/sessions/{id}?limit=5000",
		setup: session, status: 200, match: pageIs(4, 0, server.MaxPageLimit, 4, false)},
	{name: "transcript limit=0", method: "GET", path: "/sessions/{id}?limit=0",
		setup: session, status: 400, match: refusal("limit must be a positive integer")},
	{name: "transcript limit not a number", method: "GET", path: "/sessions/{id}?limit=ten",
		setup: session, status: 400, match: refusal("limit must be a positive integer")},
	{name: "transcript negative offset", method: "GET", path: "/sessions/{id}?offset=-1",
		setup: session, status: 400, match: refusal("offset must be a non-negative integer")},
	{name: "transcript of unknown session", method: "GET", path: "/sessions/nope",
		status: 404, match: refusal("unknown session")},
	{name: "transcript of evicted session", method: "GET", path: "/sessions/{id}",
		setup:  func(w *world) string { id := session(w); w.clock.Advance(confTTL + time.Minute); return id },
		status: 410, match: refusal("evicted")},

	{name: "replica read, caught up", method: "GET", path: "/sessions/{id}?replica=1",
		setup: replicated, status: 200, header: map[string]string{"X-CDA-Stale": ""},
		match: pageIs(4, 0, server.DefaultPageLimit, 4, false)},
	{name: "replica read, lagging", method: "GET", path: "/sessions/{id}?replica=1",
		setup: func(w *world) string {
			id := replicated(w)
			// Two more turns commit behind the router's back, and only the
			// first reaches the replica: it now knows it is one pair behind.
			w.ask(w.primary.URL, id, 2)
			shard := sessionstore.ShardIndexFor(id, confShards)
			if done, err := w.router.ShipStep(context.Background(), "n1", shard, 1); err != nil || done {
				w.t.Fatalf("partial ship: caught up %v, err %v", done, err)
			}
			return id
		},
		status: 200, header: map[string]string{"X-CDA-Stale": "true"},
		match: pageIs(6, 0, server.DefaultPageLimit, 6, true)},

	{name: "ask with the primary down", method: "POST", path: "/sessions/{id}/ask", body: `{"question":"` + confQ + `"}`,
		setup:  func(w *world) string { id := session(w); w.primary.Close(); return id },
		status: 503, match: refusal("retry shortly"), routerOnly: true},
	{name: "transcript with the primary down", method: "GET", path: "/sessions/{id}",
		setup:  func(w *world) string { id := session(w); w.primary.Close(); return id },
		status: 503, match: refusal("retry shortly"), routerOnly: true},
}

// run plays one fixture against one column and returns the body.
func (f fixture) run(t *testing.T, routed bool) []byte {
	w := newWorld(t, routed)
	id := ""
	if f.setup != nil {
		id = f.setup(w)
	}
	base := w.front
	if !routed && strings.Contains(f.path, "replica=1") {
		// Without a router the client picks the replica itself.
		base = w.replica.URL
	}
	resp, body := w.do(f.method, base+strings.ReplaceAll(f.path, "{id}", id), strings.ReplaceAll(f.body, "{id}", id))
	if resp.StatusCode != f.status {
		t.Errorf("status = %d, want %d (body %s)", resp.StatusCode, f.status, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	for k, want := range f.header {
		if got := resp.Header.Get(k); got != want {
			t.Errorf("header %s = %q, want %q", k, got, want)
		}
	}
	f.match(t, body)
	return body
}

func TestSessionAPIConformance(t *testing.T) {
	for _, f := range conformance {
		t.Run(f.name, func(t *testing.T) {
			var direct, routed []byte
			if !f.routerOnly {
				t.Run("node", func(t *testing.T) { direct = f.run(t, false) })
			}
			t.Run("router", func(t *testing.T) { routed = f.run(t, true) })
			if !f.routerOnly && !f.idInBody && !bytes.Equal(direct, routed) {
				t.Errorf("a routed answer must be byte-identical to a direct one:\nnode:   %srouter: %s", direct, routed)
			}
		})
	}
}

// TestNodeClientsRefuseAlike is the same promise one layer down: the
// router's two views of a node — LocalNode in process, HTTPNode over
// the node's handlers — return the same typed refusal, in the same
// words, for the same call.
func TestNodeClientsRefuseAlike(t *testing.T) {
	ctx := context.Background()
	calls := []struct {
		name string
		call func(n NodeClient, id string) error
		kind error
	}{
		{"ask with blank question", func(n NodeClient, id string) error { _, err := n.Ask(ctx, id, " \t"); return err }, server.ErrBadRequest},
		{"ask on unknown session", func(n NodeClient, _ string) error { _, err := n.Ask(ctx, "nope", confQ); return err }, server.ErrUnknown},
		{"transcript of unknown session", func(n NodeClient, _ string) error { _, err := n.Transcript(ctx, "nope", 0, 0); return err }, server.ErrUnknown},
		{"create under a taken id", func(n NodeClient, id string) error { return n.CreateSession(ctx, id) }, server.ErrConflict},
		{"pull from a shard the node lacks", func(n NodeClient, _ string) error { _, err := n.Pull(ctx, confShards, 0, 0); return err }, server.ErrBadRequest},
		{"pull from a cursor the node never reached", func(n NodeClient, _ string) error { _, err := n.Pull(ctx, 0, 99, 0); return err }, server.ErrConflict},
		{"want chunks on an unversioned node", func(n NodeClient, _ string) error { _, err := n.WantChunks(ctx, "root", 1); return err }, server.ErrUnknown},
	}
	for _, c := range calls {
		t.Run(c.name, func(t *testing.T) {
			store := func() *sessionstore.Store {
				return sessionstore.NewMemory(sessionstore.Config{Shards: confShards})
			}
			ts := httptest.NewServer(server.NewWithOptions(testSystem(1), nil, 0, server.Options{Store: store()}).Handler())
			defer ts.Close()
			var said [2]*server.Error
			for i, n := range []NodeClient{
				NewLocalNode("local", store(), testSystem(1)),
				NewHTTPNode("http", ts.URL, confShards, nil),
			} {
				if err := n.CreateSession(ctx, "s1"); err != nil {
					t.Fatal(err)
				}
				err := c.call(n, "s1")
				if !errors.Is(err, c.kind) || !errors.As(err, &said[i]) {
					t.Fatalf("%s: error = %v, want a server.Error of kind %q", n.Name(), err, c.kind)
				}
			}
			if said[0].Msg != said[1].Msg {
				t.Errorf("LocalNode says %q, HTTPNode says %q", said[0].Msg, said[1].Msg)
			}
		})
	}
}
