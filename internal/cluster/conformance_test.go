package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/reliable-cda/cda/internal/admission"
	"github.com/reliable-cda/cda/internal/dialogue"
	"github.com/reliable-cda/cda/internal/resilience"
	"github.com/reliable-cda/cda/internal/server"
	"github.com/reliable-cda/cda/internal/sessionstore"
	"github.com/reliable-cda/cda/internal/vstore"
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
	{name: "create with a body over the bound", method: "POST", path: "/sessions", body: `{"id":"` + strings.Repeat("x", 64<<10) + `"}`,
		status: 400, match: refusal("request body exceeds 65536 bytes")},

	{name: "ask", method: "POST", path: "/sessions/{id}/ask", body: `{"question":"` + confQ + `"}`,
		setup: session, status: 200, match: annotated},
	{name: "ask with a body over the bound", method: "POST", path: "/sessions/{id}/ask", body: oversizedAsk,
		setup: session, status: 400, match: refusal("request body exceeds 65536 bytes")},
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

// oversizedAsk is an ask body just over the public routes' 64 KiB
// bound.
var oversizedAsk = `{"question":"` + strings.Repeat("x", 64<<10) + `"}`

// TestOversizedAskLeavesNoTurn: at either front door, an ask whose body
// is over the bound is refused whether it declares its length or is
// streamed without one, the transcript does not grow, and the next
// ordinary ask is answered.
func TestOversizedAskLeavesNoTurn(t *testing.T) {
	for _, routed := range []bool{false, true} {
		for _, streamed := range []bool{false, true} {
			t.Run(fmt.Sprintf("routed=%v/streamed=%v", routed, streamed), func(t *testing.T) {
				w := newWorld(t, routed)
				id := session(w)
				total := func() int {
					t.Helper()
					_, body := w.do("GET", w.front+"/sessions/"+id, "")
					var p server.TranscriptPage
					if err := json.Unmarshal(body, &p); err != nil {
						t.Fatalf("transcript: %s", body)
					}
					return p.Total
				}
				before := total()
				var body io.Reader = strings.NewReader(oversizedAsk)
				if streamed {
					body = io.MultiReader(body) // no length: sent chunked
				}
				req, err := http.NewRequest("POST", w.front+"/sessions/"+id+"/ask", body)
				if err != nil {
					t.Fatal(err)
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				data, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Fatal(err)
				}
				if resp.StatusCode != http.StatusBadRequest {
					t.Errorf("status = %d, want 400 (body %s)", resp.StatusCode, data)
				}
				refusal("request body exceeds 65536 bytes")(t, data)
				if got := total(); got != before {
					t.Fatalf("transcript grew from %d to %d turns on a refused ask", before, got)
				}
				w.ask(w.front, id, 1)
				if got := total(); got != before+2 {
					t.Errorf("after an ordinary ask the transcript has %d turns, want %d", got, before+2)
				}
			})
		}
	}
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
		{"want chunks for no root", func(n NodeClient, _ string) error { _, err := n.WantChunks(ctx, "", 1); return err }, server.ErrBadRequest},
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

// The node-to-node routes get the same treatment, with the two columns
// being the router's two views of a node: LocalNode in process, whose
// outcome is rendered here the way the node's handler encodes it, and
// HTTPNode over the node's own handler, whose response is taken off the
// wire. Each row is a NodeClient call on a fresh pair of durable nodes
// with version stores, and the two bodies must be byte-identical.

// shipWorld is a primary and a replica store with what every ship row
// starts from: session s1 committed on the primary to cursor 7 with a
// compaction at 6, and the replica holding the primary's first 4
// records.
type shipWorld struct {
	primary, replica *sessionstore.Store
	shard            int
}

const shipSnapEvery = 6

func newShipWorld(t *testing.T) *shipWorld {
	t.Helper()
	open := func() *sessionstore.Store {
		dir := t.TempDir()
		vs, err := vstore.Open(vstore.Config{Dir: filepath.Join(dir, "vstore")})
		if err != nil {
			t.Fatal(err)
		}
		st, err := sessionstore.Open(sessionstore.Config{Dir: dir, Shards: confShards,
			SnapshotEvery: shipSnapEvery, Versions: vs})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			if err := errors.Join(st.Close(), vs.Close()); err != nil {
				t.Errorf("close: %v", err)
			}
		})
		return st
	}
	w := &shipWorld{primary: open(), replica: open(), shard: sessionstore.ShardIndexFor("s1", confShards)}
	e, err := w.primary.NewSessionWithID("s1")
	if err != nil {
		t.Fatal(err)
	}
	pair := func(i int) {
		err := e.Do(func(sess *dialogue.Session) error {
			sess.CommitTurn(fmt.Sprintf("how many barometer in round %d", i), dialogue.IntentQuery, fmt.Sprintf("%d rows", i), 0.5)
			return w.primary.CommitTurn(e)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		pair(i)
	}
	w.apply(t, w.pull(t, 0))
	for i := 3; i < 6; i++ {
		pair(i)
	}
	if got := w.primary.ReplicationCursor(w.shard); got != 7 || w.replica.ReplicationCursor(w.shard) != 4 {
		t.Fatalf("set-up: primary at %d, replica at %d; want 7 and 4", got, w.replica.ReplicationCursor(w.shard))
	}
	return w
}

func (w *shipWorld) pull(t *testing.T, after int64) sessionstore.ShipBatch {
	t.Helper()
	b, err := w.primary.PullFrames(w.shard, after, 0)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func (w *shipWorld) apply(t *testing.T, b sessionstore.ShipBatch) {
	t.Helper()
	if err := w.replica.ApplyBatch(b); err != nil {
		t.Fatal(err)
	}
}

// applied is an Apply call's outcome on the wire: the replica's cursor,
// which a 409 carries too.
type applied struct {
	Cursor int64 `json:"cursor"`
}

// shipRow is one node-to-node row: a call on the primary or the replica
// and what the node answers.
type shipRow struct {
	name   string
	call   func(ctx context.Context, t *testing.T, w *shipWorld, primary, replica NodeClient) (any, error)
	status int
	match  matcher
}

func pullRow(name string, shard func(w *shipWorld) int, after int64, max, status int, match matcher) shipRow {
	return shipRow{name: name, status: status, match: match,
		call: func(ctx context.Context, _ *testing.T, w *shipWorld, primary, _ NodeClient) (any, error) {
			return primary.Pull(ctx, shard(w), after, max)
		}}
}

func applyRow(name string, after int64, status int, match matcher) shipRow {
	return shipRow{name: name, status: status, match: match,
		call: func(ctx context.Context, t *testing.T, w *shipWorld, _, replica NodeClient) (any, error) {
			cur, err := replica.Apply(ctx, w.pull(t, after))
			return applied{cur}, err
		}}
}

func ownShard(w *shipWorld) int { return w.shard }

// batchIs matches a ShipBatch: a snapshot root or none, and the ship
// sequences of its frames.
func batchIs(root bool, seqs ...int64) matcher {
	return func(t *testing.T, body []byte) {
		t.Helper()
		var b sessionstore.ShipBatch
		if err := json.Unmarshal(body, &b); err != nil {
			t.Fatalf("body is not a batch: %s", body)
		}
		var got []int64
		for _, f := range b.Frames {
			got = append(got, f.Seq)
		}
		if (b.SnapshotRoot != "") != root || fmt.Sprint(got) != fmt.Sprint(seqs) || b.PrimaryCursor != 7 {
			t.Errorf("batch = root %q, frames %v, primary cursor %d; want a root %v, frames %v, cursor 7",
				b.SnapshotRoot, got, b.PrimaryCursor, root, seqs)
		}
		if root && b.SnapshotSeq != shipSnapEvery {
			t.Errorf("snapshot_seq = %d, want the horizon %d", b.SnapshotSeq, shipSnapEvery)
		}
	}
}

// refusalWith is refusal plus the extra members a replication refusal
// carries beside its error.
func refusalWith(want string, extra map[string]any) matcher {
	return func(t *testing.T, body []byte) {
		t.Helper()
		var got map[string]any
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatalf("body is not JSON: %s", body)
		}
		msg, _ := got["error"].(string)
		if len(got) != 1+len(extra) || !strings.Contains(msg, want) {
			t.Errorf("body = %s, want an error containing %q and %v", body, want, extra)
		}
		for k, v := range extra {
			if fmt.Sprint(got[k]) != fmt.Sprint(v) && !(v == nil && got[k] != nil) {
				t.Errorf("%s = %v, want %v", k, got[k], v)
			}
		}
	}
}

var shipConformance = []shipRow{
	pullRow("pull with a negative after", ownShard, -1, 0, 400, refusal(`after must be a non-negative integer, got "-1"`)),
	pullRow("pull with a negative max", ownShard, 0, -1, 400, refusal(`max must be a non-negative integer, got "-1"`)),
	pullRow("pull from a shard the node lacks", func(*shipWorld) int { return confShards }, 0, 0, 400, refusal("shard must be an integer in [0,2)")),
	pullRow("pull from a cursor ahead of the primary", ownShard, 99, 0, 409, refusal("replica cursor 99 ahead of shard")),
	pullRow("pull at the horizon", ownShard, shipSnapEvery, 0, 200, batchIs(false, 7)),
	pullRow("pull below the horizon", ownShard, 4, 0, 200, batchIs(true, 7)),
	applyRow("apply with a gap", shipSnapEvery, 409, refusalWith("frame gap", map[string]any{"cursor": 4})),
	applyRow("apply with a missing closure", 4, 428, refusalWith("missing chunks under snapshot root", map[string]any{"missing_root": nil})),
}

// wire renders a LocalNode call's outcome as the node's handler encodes
// it: the value, or the error envelope under the refusal's status.
func wire(t *testing.T, v any, err error) (int, []byte) {
	t.Helper()
	type envelope struct {
		Error       string `json:"error"`
		MissingRoot string `json:"missing_root,omitempty"`
		Cursor      *int64 `json:"cursor,omitempty"`
	}
	status, body := http.StatusOK, v
	var missing *sessionstore.MissingChunksError
	var said *server.Error
	switch {
	case err == nil:
	case errors.As(err, &missing):
		status, body = http.StatusPreconditionRequired, envelope{Error: err.Error(), MissingRoot: string(missing.Root)}
	case errors.As(err, &said) && errors.Is(err, server.ErrBadRequest):
		status, body = http.StatusBadRequest, envelope{Error: said.Msg}
	case errors.As(err, &said) && errors.Is(err, server.ErrConflict):
		env := envelope{Error: said.Msg}
		if a, ok := v.(applied); ok {
			env.Cursor = &a.Cursor
		}
		status, body = http.StatusConflict, env
	default:
		t.Fatalf("no row expects %v", err)
	}
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	return status, append(data, '\n')
}

// lastResponse is an HTTP transport that keeps the last response's
// status and body.
type lastResponse struct {
	status int
	body   []byte
}

func (l *lastResponse) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	l.status, l.body = resp.StatusCode, data
	resp.Body = io.NopCloser(bytes.NewReader(data))
	return resp, nil
}

// run plays the row against one column and returns the status and body.
func (r shipRow) run(t *testing.T, overHTTP bool) (int, []byte) {
	ctx := context.Background()
	w := newShipWorld(t)
	if !overHTTP {
		v, err := r.call(ctx, t, w, NewLocalNode("n1-primary", w.primary, nil), NewLocalNode("n1-replica", w.replica, nil))
		return wire(t, v, err)
	}
	last := &lastResponse{}
	node := func(name string, st *sessionstore.Store) NodeClient {
		ts := httptest.NewServer(server.NewWithOptions(nil, nil, 0, server.Options{Store: st, NodeName: name}).Handler())
		t.Cleanup(ts.Close)
		return NewHTTPNode(name, ts.URL, confShards, &http.Client{Transport: last})
	}
	_, _ = r.call(ctx, t, w, node("n1-primary", w.primary), node("n1-replica", w.replica))
	return last.status, last.body
}

func TestReplicationRouteConformance(t *testing.T) {
	for _, r := range shipConformance {
		t.Run(r.name, func(t *testing.T) {
			var bodies [2][]byte
			for i, col := range []string{"LocalNode", "HTTPNode"} {
				t.Run(col, func(t *testing.T) {
					status, body := r.run(t, i == 1)
					if status != r.status {
						t.Errorf("status = %d, want %d (body %s)", status, r.status, body)
					}
					r.match(t, body)
					bodies[i] = body
				})
			}
			if !bytes.Equal(bodies[0], bodies[1]) {
				t.Errorf("LocalNode and HTTPNode must answer byte-identically:\nLocalNode: %sHTTPNode:  %s", bodies[0], bodies[1])
			}
		})
	}
}
