package server

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"github.com/reliable-cda/cda/internal/obs"
	"github.com/reliable-cda/cda/internal/sessionstore"
)

// traceDialogue is one seeded dialogue over two sessions on a
// dir-backed store that compacts every fourth record: every intent
// the core serves, a follow-up, a question answered from the optimizer's
// cache, and a turn that sets off a compaction.
var traceDialogue = []struct{ session, question string }{
	{"a", "find datasets about employment"},
	{"a", "describe employment"},
	{"a", "how many employment where canton is Zurich"},
	{"a", "and in Bern?"},
	{"b", "how many employment where canton is Zurich"},
	{"b", "how many barometer"},
	{"a", "what is the trend of employment"},
	{"b", "hello there"},
}

// turnCounters is the pinned part of a turn's trace: every counter but
// the malloc delta, which is the process's and moves run to run.
type turnCounters struct {
	journalFsyncs, journalFrames, journalBytes int64
	encoded, hashed, journalled                int64
	rows, candidates, distinct                 int64
}

func countersOf(r *obs.Report) turnCounters {
	c := r.Counters
	return turnCounters{c["journal_fsyncs"], c["journal_frames"], c["journal_bytes"],
		c["chunks_encoded"], c["chunks_hashed"], c["chunks_journalled"],
		c["rows_scanned"], c["candidates"], c["candidates_distinct"]}
}

// TestTurnCountersArePinned runs traceDialogue traced and pins what
// each turn counted. A change that makes a turn fsync, journal, hash or
// scan more shows here as a number, before any benchmark.
func TestTurnCountersArePinned(t *testing.T) {
	_, srv := durableServer(t, t.TempDir(), sessionstore.Config{Shards: 2, SnapshotEvery: 4}, nil)
	ids := map[string]string{}
	for _, name := range []string{"a", "b"} {
		id, err := srv.CreateSession(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		ids[name] = id
	}
	// journal: fsyncs, frames, bytes;
	// chunks: encoded, hashed, journalled; rows scanned; candidates,
	// distinct.
	want := []turnCounters{
		{1, 2, 458, 3, 3, 3, 0, 0, 0},
		{1, 2, 290, 3, 3, 3, 0, 0, 0},
		{2, 3, 168, 5, 5, 5, 100, 5, 1}, // compacts shard: a second flushed append, the root
		{1, 2, 100, 3, 3, 3, 100, 5, 1},
		{1, 1, 43, 3, 3, 2, 0, 0, 0}, // a cache hit, whose turns chunk "a" already journalled
		{1, 2, 105, 3, 3, 3, 120, 5, 1},
		{1, 2, 178, 3, 3, 3, 0, 0, 0},
		{2, 3, 230, 5, 5, 5, 0, 0, 0},
	}
	var got []turnCounters
	for i, turn := range traceDialogue {
		resp, err := srv.Ask(obs.WithTrace(context.Background()), ids[turn.session], turn.question)
		if err != nil {
			t.Fatalf("turn %d: %v", i, err)
		}
		if resp.Trace == nil {
			t.Fatalf("turn %d: a traced ask has no trace", i)
		}
		if resp.Trace.Counters["response_bytes"] <= 0 {
			t.Errorf("turn %d: response_bytes = %d", i, resp.Trace.Counters["response_bytes"])
		}
		got = append(got, countersOf(resp.Trace))
		spans := spanNames(resp.Trace.Span)
		for _, name := range []string{"server.ask", "core.respond", "core.classify", "core.handle",
			"sessionstore.commit_turn", "sessionstore.version_encode", "vstore.journal", "server.encode"} {
			if !strings.Contains(spans, " "+name+" ") {
				t.Errorf("turn %d: no %s span in%s", i, name, spans)
			}
		}
	}
	var b strings.Builder
	for _, c := range got {
		fmt.Fprintf(&b, "\t\t{%d, %d, %d, %d, %d, %d, %d, %d, %d},\n",
			c.journalFsyncs, c.journalFrames, c.journalBytes,
			c.encoded, c.hashed, c.journalled, c.rows, c.candidates, c.distinct)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("per-turn counters moved; now:\n%s", b.String())
	}
}

// spanNames lists a span tree's names, space-separated, depth first.
func spanNames(s *obs.Span) string {
	out := " " + s.Name + " "
	for _, c := range s.Spans {
		out += spanNames(c)[1:]
	}
	return out
}

// TestUntracedAskHasNoTrace: an ask that does not ask for a trace gets
// none, and a traced one times each core stage of a query.
func TestUntracedAskHasNoTrace(t *testing.T) {
	_, srv := durableServer(t, t.TempDir(), sessionstore.Config{Shards: 2}, nil)
	id, err := srv.CreateSession(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	const q = "how many employment where canton is Zurich"
	resp, err := srv.Ask(context.Background(), id, q)
	if err != nil || resp.Trace != nil {
		t.Fatalf("untraced ask: trace %v, err %v", resp.Trace, err)
	}
	resp, err = srv.Ask(obs.WithTrace(context.Background()), id, "and in Bern?")
	if err != nil {
		t.Fatal(err)
	}
	spans := spanNames(resp.Trace.Span)
	for _, name := range []string{"core.translate", "core.ground", "core.finalize", "core.suggest"} {
		if !strings.Contains(spans, " "+name+" ") {
			t.Errorf("no %s span in%s", name, spans)
		}
	}
}
