package server

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"log"
	"net/http"
	"strconv"

	"github.com/reliable-cda/cda/internal/catalog"
	"github.com/reliable-cda/cda/internal/obs"
	"github.com/reliable-cda/cda/internal/sessionstore"
	"github.com/reliable-cda/cda/internal/vstore"
)

// SessionAPI is what the three public session routes call. *Server
// implements it over its own store; *cluster.Router implements it by
// forwarding to the member that owns the session.
type SessionAPI interface {
	CreateSession(ctx context.Context) (id string, err error)
	CreateSessionWithID(ctx context.Context, id string) error
	Ask(ctx context.Context, id, question string) (AskResponse, error)
	Transcript(ctx context.Context, id string, offset, limit int, preferReplica bool) (TranscriptPage, error)
}

// RegisterSessionRoutes mounts the public session routes — the only
// place they are registered, whichever binary serves them.
func RegisterSessionRoutes(mux *http.ServeMux, api SessionAPI) {
	mux.HandleFunc("POST /sessions", func(w http.ResponseWriter, r *http.Request) {
		// An empty body (the original protocol) lets the backend allocate
		// the id; only a present-but-broken body is a 400.
		var req struct {
			ID string `json:"id"`
		}
		err := limitBody(w, r)
		if err == nil {
			err = json.NewDecoder(r.Body).Decode(&req)
		}
		switch {
		case err != nil && !errors.Is(err, io.EOF):
			err = badBody(err)
		case req.ID != "":
			err = api.CreateSessionWithID(r.Context(), req.ID)
		default:
			req.ID, err = api.CreateSession(r.Context())
		}
		respond(w, http.StatusCreated, map[string]string{"id": req.ID}, err)
	})
	mux.HandleFunc("POST /sessions/{id}/ask", func(w http.ResponseWriter, r *http.Request) {
		var req AskRequest
		if err := limitBody(w, r); err != nil {
			writeError(w, badBody(err))
			return
		}
		if !decodeBody(w, r, &req) {
			return
		}
		ctx := r.Context()
		if r.URL.Query().Get("trace") == "1" {
			ctx = obs.WithTrace(ctx)
		}
		resp, err := api.Ask(ctx, r.PathValue("id"), req.Question)
		respond(w, http.StatusOK, resp, err)
	})
	mux.HandleFunc("GET /sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		offset, err := queryInt(q.Get("offset"), 0, 0, "offset must be a non-negative integer, got %q")
		limit, lerr := queryInt(q.Get("limit"), DefaultPageLimit, 1, "limit must be a positive integer, got %q")
		if err = errors.Join(err, lerr); err != nil {
			writeError(w, err)
			return
		}
		page, err := api.Transcript(r.Context(), r.PathValue("id"), offset, limit, q.Get("replica") == "1")
		if page.Stale {
			w.Header().Set("X-CDA-Stale", "true")
		}
		respond(w, http.StatusOK, page, err)
	})
}

// Handler returns the node's HTTP handler with all routes registered.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	RegisterSessionRoutes(mux, s)
	mux.HandleFunc("GET /health", func(w http.ResponseWriter, _ *http.Request) {
		WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		WriteJSON(w, http.StatusOK, s.Health())
	})
	mux.HandleFunc("GET /datasets", s.handleDatasets)
	mux.HandleFunc("GET /sessions/{id}/asof/{turn}", s.handleTranscriptAsOf)
	mux.HandleFunc("GET /versions/{root...}", s.handleVersions)
	mux.HandleFunc("GET /replication/{shard}", s.handlePullRecords)
	mux.HandleFunc("POST /replication/apply", s.handleApplyBatch)
	mux.HandleFunc("POST /chunks/want", s.handleChunksWant)
	mux.HandleFunc("POST /chunks/fetch", s.handleChunksFetch)
	mux.HandleFunc("POST /chunks/put", s.handleChunksPut)
	return mux
}

// WriteJSON writes one JSON response.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// The status line is already on the wire, so the client cannot
		// be told; surface the failure to the operator instead of
		// dropping it (a truncated annotated answer silently loses its
		// provenance/confidence payload).
		log.Printf("server: encoding response: %v", err)
	}
}

// respond is the encode half of every adapter: the call's value under
// the success status, or its error through the status table.
func respond(w http.ResponseWriter, status int, v any, err error) {
	if err != nil {
		writeError(w, err)
		return
	}
	WriteJSON(w, status, v)
}

// maxSessionBody bounds the body of the two public POST routes, so a
// client cannot make a node buffer an arbitrarily large body before
// admission.
const maxSessionBody = 64 << 10

// limitBody caps a public route's body at maxSessionBody bytes. A body
// that declares a longer length is refused before any of it is read.
func limitBody(w http.ResponseWriter, r *http.Request) error {
	if r.ContentLength > maxSessionBody {
		return &http.MaxBytesError{Limit: maxSessionBody}
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxSessionBody)
	return nil
}

// badBody is the refusal for a request body that did not decode.
func badBody(err error) error {
	var tooLong *http.MaxBytesError
	if errors.As(err, &tooLong) {
		return refuse(ErrBadRequest, "request body exceeds %d bytes", tooLong.Limit)
	}
	return refuse(ErrBadRequest, "invalid JSON: %v", err)
}

// decodeBody is the decode half for JSON bodies; it answers a malformed
// one itself and reports whether the handler may go on.
func decodeBody(w http.ResponseWriter, r *http.Request, into any) bool {
	if err := json.NewDecoder(r.Body).Decode(into); err != nil {
		writeError(w, badBody(err))
		return false
	}
	return true
}

// queryInt parses one integer query parameter: def when absent,
// ErrBadRequest with complaint (a %q format for the raw value) when
// malformed or below floor.
func queryInt(v string, def, floor int, complaint string) (int, error) {
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < floor {
		return 0, refuse(ErrBadRequest, complaint, v)
	}
	return n, nil
}

// handlePullRecords serves GET /replication/{shard}?after=&max=.
func (s *Server) handlePullRecords(w http.ResponseWriter, r *http.Request) {
	shard, err := strconv.Atoi(r.PathValue("shard"))
	if err != nil {
		shard = -1 // Pull words the refusal
	}
	after, aerr := queryInt(r.URL.Query().Get("after"), 0, 0, "after must be a non-negative integer, got %q")
	max, merr := queryInt(r.URL.Query().Get("max"), 0, 0, "max must be a non-negative integer, got %q")
	if err := errors.Join(aerr, merr); err != nil {
		writeError(w, err)
		return
	}
	batch, err := s.Pull(shard, int64(after), max)
	respond(w, http.StatusOK, batch, err)
}

// handleApplyBatch serves POST /replication/apply, answering with the
// shard's new cursor.
func (s *Server) handleApplyBatch(w http.ResponseWriter, r *http.Request) {
	var batch sessionstore.ShipBatch
	if !decodeBody(w, r, &batch) {
		return
	}
	cursor, err := s.Apply(batch)
	respond(w, http.StatusOK, map[string]int64{"cursor": cursor}, err)
}

// DatasetInfo is the catalog listing payload.
type DatasetInfo struct {
	ID          string  `json:"id"`
	Name        string  `json:"name"`
	Description string  `json:"description"`
	Source      string  `json:"source,omitempty"`
	Freshness   float64 `json:"freshness"`
	Rotted      bool    `json:"rotted"`
}

func (s *Server) handleDatasets(w http.ResponseWriter, _ *http.Request) {
	out := []DatasetInfo{}
	if s.cat != nil {
		for _, d := range s.cat.List() {
			out = append(out, DatasetInfo{
				ID: d.ID, Name: d.Name, Description: d.Description, Source: d.Source,
				Freshness: catalog.Freshness(d, s.now),
				Rotted:    catalog.Rotted(d, s.now),
			})
		}
	}
	WriteJSON(w, http.StatusOK, out)
}

// VersionInfo is one commit in a /versions/{root} listing.
type VersionInfo struct {
	Hash   string `json:"hash"`
	Tree   string `json:"tree"`
	Parent string `json:"parent,omitempty"`
	Turn   int    `json:"turn"`
	Stamp  int64  `json:"stamp"`
}

func versionInfo(c vstore.Commit) VersionInfo {
	return VersionInfo{Hash: string(c.Hash), Tree: string(c.Tree),
		Parent: string(c.Parent), Turn: c.Turn, Stamp: c.Stamp}
}

// handleVersions serves a version root's commit log (GET
// /versions/{root...} — root names contain slashes, e.g.
// "session/s0001" or "data").
func (s *Server) handleVersions(w http.ResponseWriter, r *http.Request) {
	root := r.PathValue("root")
	commits, err := s.store.Versions().Log(root)
	if errors.Is(err, vstore.ErrUnknownRoot) {
		err = refuse(ErrUnknown, "unknown version root")
	}
	out := make([]VersionInfo, 0, len(commits))
	for _, c := range commits {
		out = append(out, versionInfo(c))
	}
	respond(w, http.StatusOK, map[string]any{"root": root, "commits": out}, err)
}

// AsOfResponse is the time-travel transcript payload: the transcript
// as the store saw it at the requested turn, plus the commit that
// pins that version.
type AsOfResponse struct {
	Turns  []TranscriptTurn `json:"turns"`
	Total  int              `json:"total"`
	Commit VersionInfo      `json:"commit"`
}

// handleTranscriptAsOf serves GET /sessions/{id}/asof/{turn}: the
// session transcript materialized from the version at or before the
// requested turn — an immutable read that never touches the live
// session entry.
func (s *Server) handleTranscriptAsOf(w http.ResponseWriter, r *http.Request) {
	turn, err := strconv.Atoi(r.PathValue("turn"))
	if err != nil || turn < 0 {
		writeError(w, refuse(ErrBadRequest, "turn must be a non-negative integer"))
		return
	}
	id := r.PathValue("id")
	if _, err := s.store.Versions().AsOf(sessionstore.SessionRoot(id), turn); err != nil {
		msg := "no version at or before that turn"
		if errors.Is(err, vstore.ErrUnknownRoot) {
			msg = "no versions recorded for this session"
		}
		writeError(w, refuse(ErrUnknown, msg))
		return
	}
	// The version exists, so failing to read it back — a chunk that no
	// longer passes its checksum, say — is this node's failure, not the
	// client's: a logged 500, never a 404 and never altered bytes.
	sess, c, err := s.store.TranscriptAsOf(id, turn)
	if err != nil {
		writeError(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, AsOfResponse{Total: len(sess.Turns),
		Turns: renderTurns(sess.Turns), Commit: versionInfo(c)})
}

// WantChunksRequest asks which chunks of a root's closure are missing
// locally (POST /chunks/want) — the replica-side half of catch-up
// negotiation.
type WantChunksRequest struct {
	Root  string `json:"root"`
	Limit int    `json:"limit"`
}

// FetchChunksRequest asks for chunk packets by hash (POST
// /chunks/fetch) — served by the node that has them.
type FetchChunksRequest struct {
	Hashes []string `json:"hashes"`
}

// PutChunksRequest ships chunk packets (POST /chunks/put).
type PutChunksRequest struct {
	Packets []vstore.Packet `json:"packets"`
}

func (s *Server) handleChunksWant(w http.ResponseWriter, r *http.Request) {
	var req WantChunksRequest
	if !decodeBody(w, r, &req) {
		return
	}
	missing, err := s.WantChunks(req.Root, req.Limit)
	respond(w, http.StatusOK, map[string][]string{"missing": missing}, err)
}

func (s *Server) handleChunksFetch(w http.ResponseWriter, r *http.Request) {
	var req FetchChunksRequest
	if !decodeBody(w, r, &req) {
		return
	}
	packets, err := s.FetchChunks(req.Hashes)
	respond(w, http.StatusOK, map[string][]vstore.Packet{"packets": packets}, err)
}

func (s *Server) handleChunksPut(w http.ResponseWriter, r *http.Request) {
	var req PutChunksRequest
	if !decodeBody(w, r, &req) {
		return
	}
	err := s.PutChunks(req.Packets)
	respond(w, http.StatusOK, map[string]int{"added": len(req.Packets)}, err)
}
