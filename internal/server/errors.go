package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/reliable-cda/cda/internal/admission"
	"github.com/reliable-cda/cda/internal/sessionstore"
)

// The node API's refusal kinds. Every operation reports a refusal as
// an error matching (errors.Is) one of these or a *admission.Overload
// (shed, with its retry delay); anything else is an internal failure.
// A sentinel's text is what a client reads when nothing more specific
// was said.
var (
	ErrBadRequest  = errors.New("bad request")
	ErrUnknown     = errors.New("not found")
	ErrConflict    = errors.New("conflict")
	ErrGone        = errors.New("gone")
	ErrUnavailable = errors.New("unavailable; safe to retry shortly")
	ErrInternal    = errors.New("internal error")
)

// statusTable is the one error ↔ status mapping: writeError reads it
// left to right, DecodeError right to left (the first row of a status
// wins), so a refusal keeps its kind across any number of HTTP hops.
// 429 carries a retry delay beside the message and is handled next to
// the table, in the same two functions.
var statusTable = []struct {
	status int
	kind   error
}{
	{http.StatusBadRequest, ErrBadRequest},
	{http.StatusNotFound, ErrUnknown},
	{http.StatusConflict, ErrConflict},
	{http.StatusGone, ErrGone},
	{http.StatusServiceUnavailable, ErrUnavailable},
	// The client went away or the deadline passed mid-turn; core's
	// contract is that the transcript gained no partial turn.
	{http.StatusServiceUnavailable, context.Canceled},
	{http.StatusServiceUnavailable, context.DeadlineExceeded},
	{http.StatusInternalServerError, ErrInternal},
}

// Error is a refusal with the client-safe sentence that explains it.
// Msg crosses the wire verbatim and is restored by DecodeError, so
// the client of a router reads the node's own words.
type Error struct {
	Kind error
	Msg  string
}

func (e *Error) Error() string { return e.Msg }
func (e *Error) Unwrap() error { return e.Kind }

func refuse(kind error, format string, args ...any) error {
	return &Error{Kind: kind, Msg: fmt.Sprintf(format, args...)}
}

// reqCounter issues request IDs for error correlation in logs. An
// atomic counter — not a timestamp — so the server stays free of
// wall-clock reads.
var reqCounter atomic.Int64

// logInternal logs an internal failure under a fresh request ID and
// returns the ID, the only part of it a client may see.
func logInternal(err error) string {
	reqID := fmt.Sprintf("req-%06d", reqCounter.Add(1))
	log.Printf("server: %v [%s]", err, reqID)
	return reqID
}

// errorBody is every non-2xx response's payload.
type errorBody struct {
	Error string `json:"error"`
}

// writeError renders err through the status table. A journal append torn
// by an injected crash fault is the process dying mid-request, so the
// response is aborted: net/http closes the connection, and the client
// sees what it would see of a dead node.
func writeError(w http.ResponseWriter, err error) {
	if errors.Is(err, sessionstore.ErrCrashed) {
		// cdalint:ignore bare-panic -- net/http's documented way to abort a response and drop its connection.
		panic(http.ErrAbortHandler)
	}
	status := 0
	var body errorBody
	var ov *admission.Overload
	switch {
	case errors.As(err, &ov):
		status = http.StatusTooManyRequests
		w.Header().Set("Retry-After", admission.RetryAfterSeconds(ov.RetryAfter))
		body.Error = fmt.Sprintf("overloaded (%s limit on shard %d); retry after the indicated delay", ov.Reason, ov.Shard)
	default:
		for _, row := range statusTable {
			if errors.Is(err, row.kind) {
				status, body.Error = row.status, row.kind.Error()
				break
			}
		}
	}
	var said *Error
	if status == 0 {
		// Internal details (SQL text, backend names, stack context) must
		// not leak to clients: log them under a request ID and return
		// only the reference.
		status = http.StatusInternalServerError
		body.Error = "internal error (reference " + logInternal(err) + ")"
	} else if errors.As(err, &said) {
		body.Error = said.Msg
	}
	WriteJSON(w, status, body)
}

// DecodeError is writeError's inverse, for clients of this API: it
// turns a non-2xx response back into the error the node returned.
func DecodeError(status int, header http.Header, body io.Reader) error {
	var b errorBody
	if err := json.NewDecoder(body).Decode(&b); err != nil || b.Error == "" {
		b.Error = http.StatusText(status)
	}
	if status == http.StatusTooManyRequests {
		secs, err := strconv.Atoi(header.Get("Retry-After"))
		if err != nil {
			secs = 1 // the floor RetryAfterSeconds writes
		}
		return &Error{Msg: b.Error, Kind: &admission.Overload{Reason: "node", RetryAfter: time.Duration(secs) * time.Second}}
	}
	for _, row := range statusTable {
		if row.status == status {
			return &Error{Kind: row.kind, Msg: b.Error}
		}
	}
	return fmt.Errorf("unexpected status %d: %s", status, b.Error)
}
