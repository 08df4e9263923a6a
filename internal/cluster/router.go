package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/reliable-cda/cda/internal/admission"
	"github.com/reliable-cda/cda/internal/resilience"
	"github.com/reliable-cda/cda/internal/server"
	"github.com/reliable-cda/cda/internal/sessionstore"
)

// Member is one ring position: a primary node and the replica that
// shadows it. Replica may be nil (a member with no failover — the
// degenerate single-node deployment).
type Member struct {
	Name    string
	Primary NodeClient
	Replica NodeClient
}

// Config assembles a Router.
type Config struct {
	// Members are the ring members (at least one; names unique).
	Members []Member
	// VNodes is the virtual-node count per member (DefaultVNodes if
	// zero) — placement changes with it, so every router in a
	// deployment must agree.
	VNodes int
	// Clock drives the failover breakers and admission buckets; nil
	// defaults to a VirtualClock (tests). Production passes
	// resilience.NewWallClock().
	Clock resilience.Clock
	// Breaker tunes the per-member failover breaker: consecutive
	// node-level failures of a primary trip it, and a tripped breaker
	// permanently promotes the replica. The zero value takes the
	// resilience defaults (threshold 5).
	Breaker resilience.BreakerConfig
	// ClusterAdmission, when non-nil, gates every request through one
	// cluster-wide token bucket before any routing happens.
	ClusterAdmission *admission.Config
	// NodeAdmission, when non-nil, additionally gates each member with
	// its own admission controller (per-session-shard buckets, exactly
	// the single-node server's admission semantics).
	NodeAdmission *admission.Config
	// ShipMax bounds the frames per replication pull during the
	// synchronous post-write ship and CatchUp (default 64).
	ShipMax int
}

// member is a Member plus its runtime failover state.
type member struct {
	Member
	breaker *resilience.Breaker
	adm     *admission.Controller

	mu       sync.Mutex
	promoted bool
	cursors  map[int]int64 // router's view of the replica's per-shard cursor
	shipErr  error         // most recent replication failure (cleared on success)
}

// active returns the node currently serving the member's traffic.
func (m *member) active() NodeClient {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.promoted {
		return m.Replica
	}
	return m.Primary
}

// isPromoted reports whether failover has happened.
func (m *member) isPromoted() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.promoted
}

// Router fronts the ring: it places sessions, admits requests, ships
// WAL frames to replicas after every write, and fails a member over
// to its replica when the primary's breaker trips. Safe for
// concurrent use.
type Router struct {
	ring    *Ring
	clock   resilience.Clock
	members map[string]*member
	names   []string // sorted, for deterministic iteration
	cluster *admission.Controller
	shipMax int
	nextID  atomic.Int64
}

// NewRouter builds a router over the members.
func NewRouter(cfg Config) (*Router, error) {
	if len(cfg.Members) == 0 {
		return nil, errors.New("cluster: router needs at least one member")
	}
	clock := cfg.Clock
	if clock == nil {
		clock = resilience.NewVirtualClock()
	}
	names := make([]string, 0, len(cfg.Members))
	members := make(map[string]*member, len(cfg.Members))
	for _, mm := range cfg.Members {
		if mm.Primary == nil {
			return nil, fmt.Errorf("cluster: member %q has no primary", mm.Name)
		}
		if _, dup := members[mm.Name]; dup {
			return nil, fmt.Errorf("cluster: duplicate member %q", mm.Name)
		}
		m := &member{
			Member:  mm,
			breaker: resilience.NewBreaker("cluster."+mm.Name, cfg.Breaker, clock),
			cursors: map[int]int64{},
		}
		if cfg.NodeAdmission != nil {
			acfg := *cfg.NodeAdmission
			acfg.Clock = clock
			m.adm = admission.New(acfg)
		}
		members[mm.Name] = m
		names = append(names, mm.Name)
	}
	sort.Strings(names)
	ring, err := NewRing(names, cfg.VNodes)
	if err != nil {
		return nil, err
	}
	r := &Router{ring: ring, clock: clock, members: members, names: names,
		shipMax: cfg.ShipMax}
	if r.shipMax <= 0 {
		r.shipMax = 64
	}
	if cfg.ClusterAdmission != nil {
		acfg := *cfg.ClusterAdmission
		acfg.Shards = 1
		acfg.Clock = clock
		r.cluster = admission.New(acfg)
	}
	return r, nil
}

// Handler returns the router's front door: the session routes every
// node serves (server.RegisterSessionRoutes, with this router as the
// backend) plus the router's own /healthz.
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	server.RegisterSessionRoutes(mux, r)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, req *http.Request) {
		server.WriteJSON(w, http.StatusOK, map[string]any{
			"status":  "ok",
			"members": r.Status(req.Context()),
		})
	})
	return mux
}

// route maps a session id to its member.
func (r *Router) route(id string) *member {
	return r.members[r.ring.Owner(id)]
}

// admit passes the request through the cluster-wide bucket and then
// the owning member's per-shard gate, returning a combined release.
// The error, when non-nil, is a *admission.Overload, which the front
// door renders as 429 + Retry-After.
func (r *Router) admit(m *member, id string) (func(), error) {
	release := func() {}
	if r.cluster != nil {
		rel, err := r.cluster.Admit(0)
		if err != nil {
			return nil, err
		}
		release = rel
	}
	if m.adm != nil {
		shard := sessionstore.ShardIndexFor(id, m.adm.Shards())
		rel, err := m.adm.Admit(shard)
		if err != nil {
			release()
			return nil, err
		}
		prev := release
		release = func() { prev(); rel() }
	}
	return release, nil
}

// recordOutcome feeds a call's outcome into the member's failover
// breaker. Only node-level failures (ErrNodeDown) count against the
// primary; application errors from a live node are neutral. When the
// breaker opens, the member is promoted — permanently: a primary that
// stopped acking mid-turn cannot be trusted to rejoin without an
// operator resyncing it, so flapping back is never automatic.
func (r *Router) recordOutcome(m *member, err error) {
	if m.isPromoted() {
		return
	}
	switch {
	case err == nil:
		m.breaker.Record(nil)
	case errors.Is(err, ErrNodeDown):
		m.breaker.Record(err)
	default:
		return
	}
	if m.breaker.State() == resilience.StateOpen {
		m.mu.Lock()
		if !m.promoted && m.Replica != nil {
			m.promoted = true
		}
		m.mu.Unlock()
	}
}

// CreateSession allocates a cluster-wide session id and places it.
// The id is chosen by the router (not the node) so every later
// request routes from the id alone.
func (r *Router) CreateSession(ctx context.Context) (string, error) {
	id := fmt.Sprintf("c%06d", r.nextID.Add(1))
	return id, r.CreateSessionWithID(ctx, id)
}

// CreateSessionWithID places id on the ring and creates the session
// on the owning member's active node.
func (r *Router) CreateSessionWithID(ctx context.Context, id string) error {
	m := r.route(id)
	release, err := r.admit(m, id)
	if err != nil {
		return err
	}
	defer release()
	node := m.active()
	cerr := node.CreateSession(ctx, id)
	r.recordOutcome(m, cerr)
	if cerr != nil {
		return fmt.Errorf("cluster: create session on %s: %w", node.Name(), cerr)
	}
	r.shipAfterWrite(ctx, m, id)
	return nil
}

// Ask routes one turn to the session's member. A failed ask is NOT
// retried on the replica automatically: the primary may have durably
// committed the turn before dying unacked, and silently re-running it
// on the promoted replica would fork the transcript. The caller
// re-asks (the turn is idempotent at the conversation level) and the
// retry lands on whichever node is active by then.
func (r *Router) Ask(ctx context.Context, id, question string) (server.AskResponse, error) {
	// zero is the empty response for error paths; real responses come
	// annotated from the node.
	var zero server.AskResponse
	m := r.route(id)
	release, err := r.admit(m, id)
	if err != nil {
		return zero, err
	}
	defer release()
	node := m.active()
	resp, aerr := node.Ask(ctx, id, question)
	r.recordOutcome(m, aerr)
	if aerr != nil {
		return zero, fmt.Errorf("cluster: ask on %s: %w", node.Name(), aerr)
	}
	r.shipAfterWrite(ctx, m, id)
	return resp, nil
}

// Transcript reads a session's transcript page. preferReplica sends
// the read to the member's replica (offloading the primary); a stale
// replica stamps the page, and an unreachable one falls back to the
// active node — reads degrade, they don't fail, as long as either
// node answers.
func (r *Router) Transcript(ctx context.Context, id string, offset, limit int, preferReplica bool) (server.TranscriptPage, error) {
	m := r.route(id)
	if preferReplica && m.Replica != nil && !m.isPromoted() {
		page, err := m.Replica.Transcript(ctx, id, offset, limit)
		if err == nil {
			return page, nil
		}
		if !errors.Is(err, ErrNodeDown) {
			return server.TranscriptPage{}, err
		}
		// Replica unreachable: degrade to the primary (unstamped — the
		// primary's page is current by definition).
	}
	node := m.active()
	page, err := node.Transcript(ctx, id, offset, limit)
	r.recordOutcome(m, err)
	if err != nil {
		return server.TranscriptPage{}, fmt.Errorf("cluster: transcript on %s: %w", node.Name(), err)
	}
	return page, nil
}

// shipAfterWrite synchronously ships the written session's shard to
// the member's replica. Failures never fail the write — the turn is
// already durable on the primary — but they are remembered (Status
// surfaces them) and the replica simply lags until CatchUp or the
// next successful ship.
func (r *Router) shipAfterWrite(ctx context.Context, m *member, id string) {
	if m.Replica == nil || m.isPromoted() {
		return
	}
	shard := sessionstore.ShardIndexFor(id, m.Primary.Shards())
	err := r.shipShard(ctx, m, shard)
	m.mu.Lock()
	m.shipErr = err
	m.mu.Unlock()
}

// shipStep is one bounded pull → apply for one shard: pull at most
// max frames after the router's cursor from the primary, apply them
// on the replica (negotiating chunks first when the batch ships a
// shard root the replica cannot materialize yet: replica
// asks, primary serves, only the delta moves) and store the replica's
// new cursor.
func (r *Router) shipStep(ctx context.Context, m *member, shard, max int) (caughtUp bool, err error) {
	m.mu.Lock()
	after := m.cursors[shard]
	m.mu.Unlock()
	batch, err := m.Primary.Pull(ctx, shard, after, max)
	if err != nil {
		return false, err
	}
	if batch.Empty() && batch.PrimaryCursor <= after {
		return true, nil
	}
	cur, err := m.Replica.Apply(ctx, batch)
	var missing *sessionstore.MissingChunksError
	if errors.As(err, &missing) {
		if nerr := r.negotiateChunks(ctx, m, string(missing.Root)); nerr != nil {
			return false, errors.Join(err, nerr)
		}
		cur, err = m.Replica.Apply(ctx, batch)
	}
	if err != nil {
		return false, err
	}
	m.mu.Lock()
	m.cursors[shard] = cur
	m.mu.Unlock()
	return cur >= batch.PrimaryCursor, nil
}

// shipShard steps until the replica reaches the primary's cursor. A
// step a live node refused is retried once per call, after re-learning
// the replica's authoritative cursor from its health report: the
// router's view may be stale (e.g. a restarted router at cursor 0 with
// a caught-up replica). A step that found a node down is not.
func (r *Router) shipShard(ctx context.Context, m *member, shard int) error {
	resynced := false
	for {
		caughtUp, err := r.shipStep(ctx, m, shard, r.shipMax)
		switch {
		case err == nil && caughtUp:
			return nil
		case err == nil:
			continue
		case resynced || errors.Is(err, ErrNodeDown):
			return err
		}
		if rerr := r.resyncCursor(ctx, m, shard); rerr != nil {
			return errors.Join(err, rerr)
		}
		resynced = true
	}
}

// chunkBatch bounds one negotiation round trip: the replica names up
// to this many missing chunks, the primary serves them, repeat until
// the want list drains.
const chunkBatch = 64

// negotiateChunks drives have/want chunk transfer for one shard
// root: the member's replica lists what it is missing under the root,
// the primary serves those packets, and the loop repeats until the
// replica wants nothing — shipping only the delta, never the chunks
// the replica already holds from earlier catch-ups. A round that
// moves nothing while wants remain aborts (the primary GC'd the root
// mid-transfer or the stores disagree) instead of spinning.
func (r *Router) negotiateChunks(ctx context.Context, m *member, root string) error {
	for {
		want, err := m.Replica.WantChunks(ctx, root, chunkBatch)
		if err != nil {
			return fmt.Errorf("cluster: want list from %s: %w", m.Replica.Name(), err)
		}
		if len(want) == 0 {
			return nil
		}
		packets, err := m.Primary.FetchChunks(ctx, want)
		if err != nil {
			return fmt.Errorf("cluster: fetch %d chunks from %s: %w", len(want), m.Primary.Name(), err)
		}
		if len(packets) == 0 {
			return fmt.Errorf("cluster: primary %s served none of %d wanted chunks under root %s",
				m.Primary.Name(), len(want), root)
		}
		if err := m.Replica.PutChunks(ctx, packets); err != nil {
			return fmt.Errorf("cluster: store %d chunks on %s: %w", len(packets), m.Replica.Name(), err)
		}
	}
}

// resyncCursor refreshes the router's view of the replica's cursor
// for one shard from the replica's own health report.
func (r *Router) resyncCursor(ctx context.Context, m *member, shard int) error {
	rep, err := m.Replica.Health(ctx)
	if err != nil {
		return err
	}
	if shard >= len(rep.Shards) {
		return fmt.Errorf("cluster: replica %s reports %d shards, need shard %d",
			m.Replica.Name(), len(rep.Shards), shard)
	}
	m.mu.Lock()
	m.cursors[shard] = rep.Shards[shard].WALSeq
	m.mu.Unlock()
	return nil
}

// CatchUp ships every shard of one member until its replica matches
// the primary's cursor — the heal path after a partition. maxFrames
// bounds each pull (<=0 takes the router's ShipMax) so tests can step
// a catch-up mid-way.
func (r *Router) CatchUp(ctx context.Context, name string) error {
	m, ok := r.members[name]
	if !ok {
		return fmt.Errorf("cluster: unknown member %q", name)
	}
	if m.Replica == nil || m.isPromoted() {
		return nil
	}
	var errs []error
	for shard := 0; shard < m.Primary.Shards(); shard++ {
		if err := r.shipShard(ctx, m, shard); err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", shard, err))
		}
	}
	err := errors.Join(errs...)
	m.mu.Lock()
	m.shipErr = err
	m.mu.Unlock()
	return err
}

// ShipStep performs exactly one bounded pull+apply for one shard of a
// member (maxFrames <= 0 takes ShipMax) and reports whether the
// replica is now caught up — the primitive the partition-heal chaos
// scenario uses to observe a replica mid-catch-up.
func (r *Router) ShipStep(ctx context.Context, name string, shard, maxFrames int) (caughtUp bool, err error) {
	m, ok := r.members[name]
	if !ok {
		return false, fmt.Errorf("cluster: unknown member %q", name)
	}
	if m.Replica == nil {
		return true, nil
	}
	if maxFrames <= 0 {
		maxFrames = r.shipMax
	}
	return r.shipStep(ctx, m, shard, maxFrames)
}

// Probe health-checks every unpromoted primary, feeding the failover
// breakers — the background loop cdarouter runs so a dead primary is
// promoted even when no request traffic is arriving to notice.
func (r *Router) Probe(ctx context.Context) {
	for _, name := range r.names {
		m := r.members[name]
		if m.isPromoted() {
			continue
		}
		_, err := m.Primary.Health(ctx)
		r.recordOutcome(m, err)
	}
}

// MemberStatus is one member's row in the router's health report.
type MemberStatus struct {
	Name     string `json:"name"`
	Active   string `json:"active"`
	Promoted bool   `json:"promoted"`
	Breaker  string `json:"breaker"`
	// ReplicaLag is the replica's own max reported lag (-1 when the
	// replica is unreachable or absent).
	ReplicaLag int64 `json:"replica_lag"`
	// ShipError is the most recent replication failure ("" when the
	// last ship succeeded).
	ShipError string `json:"ship_error,omitempty"`
}

// Status reports every member's failover and replication state,
// sorted by name (deterministic rendering).
func (r *Router) Status(ctx context.Context) []MemberStatus {
	out := make([]MemberStatus, 0, len(r.names))
	for _, name := range r.names {
		m := r.members[name]
		st := MemberStatus{Name: name, Active: m.active().Name(),
			Promoted: m.isPromoted(), Breaker: m.breaker.State().String(), ReplicaLag: -1}
		m.mu.Lock()
		if m.shipErr != nil {
			st.ShipError = m.shipErr.Error()
		}
		m.mu.Unlock()
		if m.Replica != nil && !st.Promoted {
			if rep, err := m.Replica.Health(ctx); err == nil {
				st.ReplicaLag = rep.MaxLag
			}
		}
		out = append(out, st)
	}
	return out
}
