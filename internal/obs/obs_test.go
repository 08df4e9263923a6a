package obs

import (
	"context"
	"encoding/json"
	"testing"
	"time"

	"github.com/reliable-cda/cda/internal/resilience"
)

// TestTracedTurnNestsSpansOnTheClock: spans nest as they were opened,
// their times come from the turn's clock, and the counters are in the
// report by name.
func TestTracedTurnNestsSpansOnTheClock(t *testing.T) {
	clock := resilience.NewVirtualClock()
	clock.Advance(time.Hour) // the turn's own start is its zero
	ctx, turn := Begin(WithTrace(context.Background()), clock, "ask")
	if From(ctx) != turn || !turn.Traced() {
		t.Fatal("a traced turn must ride its context")
	}
	outer := turn.Start("outer")
	clock.Advance(time.Millisecond)
	inner := turn.Start("inner")
	clock.Advance(2 * time.Millisecond)
	inner.End()
	outer.End()
	turn.Start("after").End()
	turn.Add(JournalFsyncs, 1)
	turn.Add(JournalBytes, 40)
	turn.Add(JournalBytes, 2)
	r := turn.Report()
	got, err := json.Marshal(r.Span)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"name":"ask","start_us":0,"dur_us":3000,"spans":[` +
		`{"name":"outer","start_us":0,"dur_us":3000,"spans":[{"name":"inner","start_us":1000,"dur_us":2000}]},` +
		`{"name":"after","start_us":3000,"dur_us":0}]}`
	if string(got) != want {
		t.Errorf("span tree\n got %s\nwant %s", got, want)
	}
	if r.Counters["journal_fsyncs"] != 1 || r.Counters["journal_bytes"] != 42 || len(r.Counters) != int(numCounters) {
		t.Errorf("counters = %v", r.Counters)
	}
}

// TestUntracedTurnAllocatesNoSpan: without a trace a span costs
// nothing, and the counters are still kept.
func TestUntracedTurnAllocatesNoSpan(t *testing.T) {
	_, turn := Begin(context.Background(), resilience.NewVirtualClock(), "ask")
	allocs := testing.AllocsPerRun(100, func() {
		end := turn.Start("stage")
		turn.Add(ChunksHashed, 1)
		end.End()
	})
	if allocs != 0 {
		t.Errorf("an untraced span allocates %v times, want 0", allocs)
	}
	if turn.Traced() || turn.Report() != nil {
		t.Error("an untraced turn must build no trace")
	}
	if n := turn.counts[ChunksHashed].Load(); n != 101 {
		t.Errorf("chunks hashed = %d, want 101", n)
	}
	var none *Turn // a layer reached without a turn
	none.Add(JournalFrames, 1)
	none.Start("stage").End()
}
