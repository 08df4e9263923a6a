// Package obs records where one turn went: work counters, kept for
// every turn, and a span tree, built only when the turn's caller asks
// for a trace. One Turn is begun at the turn's root (server.Server.Ask)
// and carried on the context to every layer the turn reaches, so a
// count is attributed to the turn that caused it, never read as a
// process-wide delta that a concurrent turn would pollute.
//
// Time comes from a resilience.Clock: under a virtual clock every span
// reads zero, and a traced run stays byte-identical to an untraced one
// in everything but the trace. Counters are deterministic proxies for
// cost — a timing moves by tens of percent between runs of one commit,
// a count repeats — except the malloc delta, which is the process's and
// is read only for a trace.
package obs

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/reliable-cda/cda/internal/resilience"
)

// Counter names one per-turn work count.
type Counter int

// The counters. A log's fsyncs, frames and bytes are what the turn
// appended to it on disk; a memory-only store appends nothing.
const (
	JournalFsyncs      Counter = iota // fsyncs of the version journal
	JournalFrames                     // frames appended to the journal: chunks and root records
	JournalBytes                      // bytes appended to the journal, frame headers included
	ChunksEncoded                     // chunks rendered to their payload bytes
	ChunksHashed                      // chunk payloads addressed (one SHA-256 each)
	ChunksJournalled                  // chunks the journal lacked and took
	RowsScanned                       // rows the SQL engine read for the turn's candidates
	Candidates                        // SQL candidates the verifier ran, repeats included
	CandidatesDistinct                // of those, the distinct ones the engine executed
	ResponseBytes                     // the answer's JSON encoding (traced turns only)
	numCounters
)

// counterNames spell the counters in a Report.
var counterNames = [numCounters]string{
	JournalFsyncs:      "journal_fsyncs",
	JournalFrames:      "journal_frames",
	JournalBytes:       "journal_bytes",
	ChunksEncoded:      "chunks_encoded",
	ChunksHashed:       "chunks_hashed",
	ChunksJournalled:   "chunks_journalled",
	RowsScanned:        "rows_scanned",
	Candidates:         "candidates",
	CandidatesDistinct: "candidates_distinct",
	ResponseBytes:      "response_bytes",
}

// Span is one timed stage of a turn, in microseconds since the turn
// began, with the stages it ran inside it.
type Span struct {
	Name    string  `json:"name"`
	StartUS int64   `json:"start_us"`
	DurUS   int64   `json:"dur_us"`
	Spans   []*Span `json:"spans,omitempty"`
}

// Report is a traced turn as the ask response carries it.
type Report struct {
	Span     *Span            `json:"span"`
	Counters map[string]int64 `json:"counters"`
	// Mallocs is the process's heap-allocation count across the turn:
	// a concurrent turn's allocations land in it too.
	Mallocs uint64 `json:"mallocs"`
}

// Turn is one turn's recorder. Its methods are safe for concurrent use
// and do nothing on a nil *Turn, so a layer reached without one — a
// test, a benchmark harness, recovery — counts nothing.
type Turn struct {
	clock  resilience.Clock
	start  time.Duration
	counts [numCounters]atomic.Int64

	// Set only when traced.
	mu      sync.Mutex
	root    *Span
	open    []*Span // the root, then each unfinished span inside the last
	mallocs uint64  // the process's count when the turn began
}

type turnKey struct{}
type traceKey struct{}

// WithTrace marks ctx as asking for a trace of the turn it starts:
// the ask route's ?trace=1.
func WithTrace(ctx context.Context) context.Context {
	return context.WithValue(ctx, traceKey{}, true)
}

// TraceRequested reports whether WithTrace marked ctx.
func TraceRequested(ctx context.Context) bool {
	on, _ := ctx.Value(traceKey{}).(bool)
	return on
}

// Begin starts a turn named name on clock and returns it with a ctx
// that carries it. The turn builds a span tree only when ctx asks for a
// trace.
func Begin(ctx context.Context, clock resilience.Clock, name string) (context.Context, *Turn) {
	t := &Turn{clock: clock, start: clock.Now()}
	if TraceRequested(ctx) {
		t.root = &Span{Name: name}
		t.open = []*Span{t.root}
		t.mallocs = mallocs()
	}
	return context.WithValue(ctx, turnKey{}, t), t
}

// From returns the turn ctx carries, or nil.
func From(ctx context.Context) *Turn {
	t, _ := ctx.Value(turnKey{}).(*Turn)
	return t
}

// Add adds n to a counter.
func (t *Turn) Add(c Counter, n int) {
	if t != nil {
		t.counts[c].Add(int64(n))
	}
}

// Traced reports whether the turn builds a span tree.
func (t *Turn) Traced() bool { return t != nil && t.root != nil }

// End finishes the span Start opened; the zero End does nothing.
type End struct {
	t *Turn
	s *Span
}

// Start opens a span named name inside the innermost open one and
// returns what ends it. An untraced turn allocates nothing.
func (t *Turn) Start(name string) End {
	if !t.Traced() {
		return End{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &Span{Name: name, StartUS: t.since()}
	parent := t.open[len(t.open)-1]
	parent.Spans = append(parent.Spans, s)
	t.open = append(t.open, s)
	return End{t: t, s: s}
}

// End records the span's duration and closes it, and any span opened
// inside it that is still open.
func (e End) End() {
	if e.t == nil {
		return
	}
	e.t.mu.Lock()
	defer e.t.mu.Unlock()
	e.s.DurUS = e.t.since() - e.s.StartUS
	for i := len(e.t.open) - 1; i > 0; i-- {
		if e.t.open[i] == e.s {
			e.t.open = e.t.open[:i]
			break
		}
	}
}

// since is the turn's age in microseconds.
func (t *Turn) since() int64 { return (t.clock.Now() - t.start).Microseconds() }

// Report closes the turn's root span and returns the trace: nil for an
// untraced turn.
func (t *Turn) Report() *Report {
	if !t.Traced() {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.root.DurUS = t.since()
	r := &Report{Span: t.root, Counters: make(map[string]int64, numCounters), Mallocs: mallocs() - t.mallocs}
	for c := range t.counts {
		r.Counters[counterNames[c]] = t.counts[c].Load()
	}
	return r
}

// mallocs reads the process's cumulative heap-allocation count.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}
