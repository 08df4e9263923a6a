// Package server is the reliable CDA system's node API: a
// session-oriented conversational API in which every response carries
// the paper's answer annotations (confidence, sources, code,
// provenance summary, suggestions) so downstream UIs can render the
// reliability signals, not just the text.
//
// The API exists once, as transport-free methods on *Server (this
// file) that return typed errors (errors.go). The HTTP handlers
// (http.go) are decode → call → encode adapters over those methods.
// Every other process reaches a node through those handlers — the
// cluster's in-process LocalNode too — so an in-process node, a node
// over HTTP and a node behind cmd/cdarouter answer alike.
//
// Sessions live in a durable sharded store (internal/sessionstore):
// every committed turn pair is journalled before the response leaves,
// so transcripts survive a crash and a restarted server resumes the
// same conversations. Asks pass an admission controller
// (internal/admission) before any work is done; an overloaded shard
// sheds with 429 + Retry-After while already-admitted turns complete.
//
// Session routes — the public API, registered once by
// RegisterSessionRoutes over the SessionAPI interface, which a node
// (*Server) and the cluster router (*cluster.Router) both satisfy:
//
//	POST /sessions                           create a conversation; returns {"id": ...}
//	POST /sessions/{id}/ask                  {"question": "..."} → annotated answer; ?trace=1
//	                                         adds the turn's span tree and work counters
//	GET  /sessions/{id}?offset=&limit=       paginated session transcript; &replica=1
//	                                         asks a router for the replica's copy
//
// Node routes (Handler adds them):
//
//	GET  /health                             liveness probe
//	GET  /healthz                            per-shard ship seq + replication lag (JSON)
//	GET  /datasets                           catalog listing with freshness
//	GET  /sessions/{id}/asof/{turn}          time-travel transcript read
//	GET  /versions/{root...}                 a version root's commit log
//	GET  /replication/{shard}?after=&max=    pull committed records as JSON (cluster shipping)
//	POST /replication/apply                  apply a pulled batch on a replica; 400 for a
//	                                         batch of the record frames 4bc3512 shipped
//	POST /chunks/want                        chunk negotiation: list missing chunks under a root
//	POST /chunks/fetch                       chunk negotiation: serve chunk packets by hash
//	POST /chunks/put                         chunk negotiation: store shipped packets
//
// Session lookups distinguish 404 (never existed) from 410 (evicted
// after sitting idle past the TTL). A node serving replicated state
// stamps transcript pages with a staleness marker whenever its store
// is known to lag the primary it last applied a batch from.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"github.com/reliable-cda/cda/internal/admission"
	"github.com/reliable-cda/cda/internal/catalog"
	"github.com/reliable-cda/cda/internal/core"
	"github.com/reliable-cda/cda/internal/dialogue"
	"github.com/reliable-cda/cda/internal/obs"
	"github.com/reliable-cda/cda/internal/sessionstore"
	"github.com/reliable-cda/cda/internal/vstore"
)

// Transcript pagination bounds: the default page keeps huge
// transcripts from serializing in one response; the max stops a
// client from asking for one anyway.
const (
	DefaultPageLimit = 100
	MaxPageLimit     = 1000
)

// Server is one node: a core.System answering questions over the
// durable session store. Safe for concurrent use; turns within one
// session are serialized by the store's per-session lock.
type Server struct {
	sys   *core.System
	cat   *catalog.Catalog
	now   int
	store *sessionstore.Store
	adm   *admission.Controller
	node  string
}

// Options wires durability and overload protection into a server.
type Options struct {
	// Store holds the sessions; nil gets a fresh memory-only store
	// (nothing survives restart — the pre-durability behaviour).
	Store *sessionstore.Store
	// Admission gates requests; nil admits everything.
	Admission *admission.Controller
	// NodeName identifies this node in /healthz and replica-served
	// transcript pages; empty defaults to "node".
	NodeName string
}

// NewWithOptions creates a server over an assembled system with the
// session store and admission controller in opts. cat may be nil when
// the deployment has no catalog.
func NewWithOptions(sys *core.System, cat *catalog.Catalog, now int, opts Options) *Server {
	st := opts.Store
	if st == nil {
		st = sessionstore.NewMemory(sessionstore.Config{})
	}
	node := opts.NodeName
	if node == "" {
		node = "node"
	}
	return &Server{sys: sys, cat: cat, now: now, store: st, adm: opts.Admission, node: node}
}

// Store exposes the session store (shutdown hooks and tests).
func (s *Server) Store() *sessionstore.Store { return s.store }

// CreateSession creates a session under a store-allocated id.
func (s *Server) CreateSession(context.Context) (string, error) {
	return created(s.store.NewSession())
}

// CreateSessionWithID creates a session under a caller-chosen id: a
// cluster router picks the id up front so consistent-hash placement
// can route every later request from the id alone.
func (s *Server) CreateSessionWithID(_ context.Context, id string) error {
	_, err := created(s.store.NewSessionWithID(id))
	return err
}

func created(entry *sessionstore.Entry, err error) (string, error) {
	if errors.Is(err, sessionstore.ErrSessionExists) {
		return "", refuse(ErrConflict, "session id already exists")
	}
	if err != nil {
		return "", fmt.Errorf("creating session: %w", err)
	}
	return entry.ID, nil
}

// lookup resolves a session id; a missing session is ErrUnknown, an
// evicted one ErrGone.
func (s *Server) lookup(id string) (*sessionstore.Entry, error) {
	entry, status := s.store.Get(id)
	switch status {
	case sessionstore.NotFound:
		return nil, refuse(ErrUnknown, "unknown session")
	case sessionstore.Gone:
		return nil, refuse(ErrGone, "session evicted after idling past the server's TTL; start a new session")
	}
	return entry, nil
}

// AskRequest is the question payload.
type AskRequest struct {
	Question string `json:"question"`
}

// AskResponse carries the annotated answer (layer ⓔ over the wire).
type AskResponse struct {
	Text          string   `json:"text"`
	Code          string   `json:"code,omitempty"`
	Confidence    float64  `json:"confidence"`
	Abstained     bool     `json:"abstained"`
	Clarification string   `json:"clarification,omitempty"`
	Suggestions   string   `json:"suggestions,omitempty"`
	Sources       []string `json:"sources,omitempty"`
	Provenance    string   `json:"provenance,omitempty"`
	// Degraded names the fallback tier that produced the answer when
	// the verified pipeline was unavailable (empty otherwise), so UIs
	// can render the outage caveat alongside the lowered confidence.
	Degraded string `json:"degraded,omitempty"`
	// DataRoot is the head commit hash of the data root the answer was
	// computed against (empty when the system versions no data).
	DataRoot string `json:"data_root,omitempty"`
	// Trace is where the turn went — its span tree and work counters —
	// present only when the ask asked for it (?trace=1).
	Trace *obs.Report `json:"trace,omitempty"`
}

// AskResponseFrom renders a core answer as the wire payload.
func AskResponseFrom(ans *core.Answer) AskResponse {
	resp := AskResponse{
		Text:          ans.Text,
		Code:          ans.Code,
		Confidence:    ans.Confidence,
		Abstained:     ans.Abstained,
		Clarification: ans.Clarification,
		Suggestions:   ans.Suggestions,
		Sources:       ans.Explanation.Sources,
		Degraded:      ans.Degraded,
		DataRoot:      ans.DataRoot,
	}
	if ans.Provenance != nil && ans.AnswerNode != "" {
		resp.Provenance = ans.Provenance.Summary(ans.AnswerNode)
	}
	return resp
}

// Ask runs one turn against a session — the only place a turn is
// taken: admit → lookup → validate → respond → commit. A refused or
// failed ask returns the zero response and leaves no turn behind. The
// turn's obs recorder starts here and rides ctx through every layer;
// when ctx asks for a trace (obs.WithTrace), the response carries it.
func (s *Server) Ask(ctx context.Context, id, question string) (AskResponse, error) {
	ctx, turn := obs.Begin(ctx, s.store.Clock(), "server.ask")
	resp, err := s.ask(ctx, turn, id, question)
	if err != nil || !turn.Traced() {
		return resp, err
	}
	end := turn.Start("server.encode")
	if body, err := json.Marshal(resp); err == nil {
		turn.Add(obs.ResponseBytes, len(body))
	}
	end.End()
	resp.Trace = turn.Report()
	return resp, nil
}

func (s *Server) ask(ctx context.Context, turn *obs.Turn, id, question string) (AskResponse, error) {
	var zero AskResponse
	if s.adm != nil {
		// Shed BEFORE any work: no session lock, no backend calls happen
		// for a rejected request.
		end := turn.Start("server.admission")
		release, err := s.adm.Admit(s.store.ShardIndex(id))
		end.End()
		if err != nil {
			return zero, err
		}
		defer release()
	}
	entry, err := s.lookup(id)
	if err != nil {
		return zero, err
	}
	if strings.TrimSpace(question) == "" {
		return zero, refuse(ErrBadRequest, "question must not be empty")
	}
	var ans *core.Answer
	err = entry.Do(func(sess *dialogue.Session) error {
		a, rerr := s.sys.Respond(ctx, sess, question)
		if rerr != nil {
			return rerr
		}
		ans = a
		// Durability before acknowledgement: the turn pair Respond just
		// committed to the transcript is journalled here; on failure the
		// session's next turn starts from what the store committed, so
		// memory, disk, and the client's view of the transcript always
		// agree (the client simply re-asks).
		return s.store.CommitTurnContext(ctx, entry)
	})
	if err != nil {
		return zero, fmt.Errorf("ask on session %s: %w", id, err)
	}
	// The turn is durable and answered. What its shard failed to do off
	// the acknowledgement path — compact into its shard root — changes
	// nothing the client reads, so it is said here, once,
	// where an operator will see it before shutdown does.
	if derr := s.store.DeferredError(s.store.ShardIndex(id)); derr != nil {
		logInternal(fmt.Errorf("after a turn on session %s: %w", id, derr))
	}
	return AskResponseFrom(ans), nil
}

// TranscriptTurn is one turn of the session transcript payload.
type TranscriptTurn struct {
	Role       string  `json:"role"`
	Text       string  `json:"text"`
	Intent     string  `json:"intent,omitempty"`
	Confidence float64 `json:"confidence,omitempty"`
}

// renderTurns renders turns; never nil, so an empty page encodes as []
// rather than null.
func renderTurns(turns []dialogue.Turn) []TranscriptTurn {
	out := []TranscriptTurn{}
	for _, t := range turns {
		tt := TranscriptTurn{Role: t.Role.String(), Text: t.Text, Confidence: t.Confidence}
		if t.Role == dialogue.RoleUser {
			tt.Intent = t.Intent.String()
		}
		out = append(out, tt)
	}
	return out
}

// TranscriptPage is the paginated transcript envelope: Turns holds
// the [Offset, Offset+Limit) window of a Total-turn transcript. Pages
// served from a store known to lag its primary carry a staleness
// stamp so clients (and the cluster router) can tell a degraded read
// from a current one; a primary leaves all three fields zero.
type TranscriptPage struct {
	Turns  []TranscriptTurn `json:"turns"`
	Total  int              `json:"total"`
	Offset int              `json:"offset"`
	Limit  int              `json:"limit"`
	// Source names the node that served the page (replica reads only).
	Source string `json:"source,omitempty"`
	// Stale is true when the serving store is known to be behind the
	// primary it last replicated from.
	Stale bool `json:"stale,omitempty"`
	// LagRecords is how many records behind the serving shard is —
	// a lower bound during a partition (the primary may have committed
	// more since it was last reachable).
	LagRecords int64 `json:"lag_records,omitempty"`
}

// Transcript reads one page of a session's committed transcript, which
// never waits behind a turn in flight on the session. limit <= 0 takes
// DefaultPageLimit and anything above MaxPageLimit is clamped. The last
// argument is SessionAPI's preferReplica: a node has one store and
// serves from it either way.
func (s *Server) Transcript(_ context.Context, id string, offset, limit int, _ bool) (TranscriptPage, error) {
	if offset < 0 {
		return TranscriptPage{}, refuse(ErrBadRequest, "offset must not be negative")
	}
	if limit <= 0 {
		limit = DefaultPageLimit
	}
	limit = min(limit, MaxPageLimit)
	entry, err := s.lookup(id)
	if err != nil {
		return TranscriptPage{}, err
	}
	page := TranscriptPage{Offset: offset, Limit: limit}
	if lag := s.store.ReplicationLag(s.store.ShardIndex(id)); lag > 0 {
		// This node's shard is behind the primary it replicates from:
		// serve the read (graceful degradation) but stamp it.
		page.Source, page.Stale, page.LagRecords = s.node, true, lag
	}
	turns, total := entry.Turns(offset, limit)
	page.Turns, page.Total = renderTurns(turns), total
	return page, nil
}

// ShardHealth is one shard's replication state in /healthz: the ship
// sequence its records have reached (wal_seq, the name the replication
// wire keeps) and how far it is known to lag the
// primary it last applied a batch from (0 on a primary).
type ShardHealth struct {
	Shard  int   `json:"shard"`
	WALSeq int64 `json:"wal_seq"`
	Lag    int64 `json:"lag"`
}

// HealthReport is the /healthz payload: enough for a router or
// operator to judge replication health, and nothing else — no paths,
// no session ids, no internals.
type HealthReport struct {
	Status   string        `json:"status"`
	Node     string        `json:"node"`
	Sessions int           `json:"sessions"`
	Shards   []ShardHealth `json:"shards"`
	// MaxLag is the largest per-shard lag, hoisted so probes can
	// threshold on one number.
	MaxLag int64 `json:"max_lag"`
}

// Health reports the node's replication state.
func (s *Server) Health() HealthReport {
	rep := HealthReport{Status: "ok", Node: s.node, Sessions: s.store.Len()}
	for i := 0; i < s.store.Shards(); i++ {
		h := ShardHealth{Shard: i,
			WALSeq: s.store.ReplicationCursor(i),
			Lag:    s.store.ReplicationLag(i)}
		rep.MaxLag = max(rep.MaxLag, h.Lag)
		rep.Shards = append(rep.Shards, h)
	}
	return rep
}

// checkShard rejects a shard index this node's store does not have.
func (s *Server) checkShard(shard int) error {
	if shard < 0 || shard >= s.store.Shards() {
		return refuse(ErrBadRequest, "shard must be an integer in [0,%d)", s.store.Shards())
	}
	return nil
}

// Pull returns one shard's committed records after a cursor, at most
// max of them (0: all) — a sessionstore.ShipBatch a replica applies
// verbatim.
func (s *Server) Pull(shard int, after int64, max int) (sessionstore.ShipBatch, error) {
	if err := s.checkShard(shard); err != nil {
		return sessionstore.ShipBatch{}, err
	}
	batch, err := s.store.PullRecords(shard, after, max)
	if err != nil {
		// A cursor ahead of this node's records means the puller has state we
		// never shipped: the request is wrong, not the node.
		return batch, refuse(ErrConflict, "%v", err)
	}
	return batch, nil
}

// Apply installs a shipped batch on this node's store and returns the
// shard's new cursor, or 0 with a refusal. A batch that does not extend
// the store — a record gap, or a shard root whose chunks were not
// negotiated first — is an ErrConflict: the shipper re-learns the
// cursor from Health and re-pulls. A batch in a format this node does
// not read is an ErrBadRequest.
func (s *Server) Apply(batch sessionstore.ShipBatch) (int64, error) {
	if err := s.checkShard(batch.Shard); err != nil {
		return 0, err
	}
	err := s.store.ApplyBatch(batch)
	var old *vstore.FormatError
	switch {
	case errors.Is(err, sessionstore.ErrReplicaGap):
		return 0, refuse(ErrConflict, "%v", err)
	case errors.As(err, &old):
		return 0, refuse(ErrBadRequest, "%v", err)
	case err != nil:
		return 0, fmt.Errorf("apply replication batch on shard %d: %w", batch.Shard, err)
	}
	return s.store.ReplicationCursor(batch.Shard), nil
}

// WantChunks lists up to limit chunks of root's closure that are
// missing here — the replica-side half of catch-up negotiation.
func (s *Server) WantChunks(root string, limit int) ([]string, error) {
	if root == "" {
		return nil, refuse(ErrBadRequest, "root must not be empty")
	}
	// WantList reads a limit <= 0 as "all", so a negative one would
	// silently mean "send me everything".
	if limit < 0 {
		return nil, refuse(ErrBadRequest, "limit must be a non-negative integer, got %q", fmt.Sprint(limit))
	}
	missing := s.store.Versions().WantList(vstore.Hash(root), limit)
	out := make([]string, 0, len(missing))
	for _, h := range missing {
		out = append(out, string(h))
	}
	return out, nil
}

// FetchChunks serves chunk packets by hash — the primary-side half.
func (s *Server) FetchChunks(hashes []string) ([]vstore.Packet, error) {
	hs := make([]vstore.Hash, 0, len(hashes))
	for _, h := range hashes {
		hs = append(hs, vstore.Hash(h))
	}
	packets, err := s.store.Versions().Packets(hs)
	if err != nil {
		// Asking for a chunk this node lacks is the requester's staleness,
		// not a server fault.
		return nil, refuse(ErrConflict, "%v", err)
	}
	return packets, nil
}

// PutChunks stores shipped packets; each is re-hashed on receipt, so a
// corrupted packet is rejected rather than stored under a wrong
// address.
func (s *Server) PutChunks(packets []vstore.Packet) error {
	err := s.store.Versions().AddPackets(packets)
	if errors.Is(err, vstore.ErrBadPacket) {
		return refuse(ErrBadRequest, "%v", err)
	}
	if err != nil {
		return fmt.Errorf("storing shipped chunks: %w", err)
	}
	return nil
}
