package nl2sql

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"github.com/reliable-cda/cda/internal/ground"
	"github.com/reliable-cda/cda/internal/nlmodel"
	"github.com/reliable-cda/cda/internal/workload"
)

// outcome is what a translation decides, without the result rows.
func outcome(tr *Translation, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return fmt.Sprintf("sql=%q candidates=%q votes=%v confidence=%v abstained=%t",
		tr.SQL, tr.Candidates, tr.Votes, tr.Confidence, tr.Abstained)
}

// TestReusedTranslatorMatchesFreshOnes: every memo on a translator's
// schema artifacts is a pure function of schema and text, so one
// translator asked question after question, with Seed set per
// question, decides exactly what a fresh translator per question does.
func TestReusedTranslatorMatchesFreshOnes(t *testing.T) {
	w := workload.GenNL2SQL(60, 0.3, 9)
	g := ground.NewGrounder(nil, w.DB, w.Vocab)
	channel := nlmodel.Channel{HallucinationRate: 0.1, Fabrications: w.Fabrications}
	reused := NewTranslator(w.DB, g, 0)
	reused.Channel = channel
	for i, qa := range w.Pairs {
		fresh := NewTranslator(w.DB, g, int64(i))
		fresh.Channel = channel
		want := outcome(fresh.Translate(qa.Question))
		reused.Seed = int64(i)
		if got := outcome(reused.Translate(qa.Question)); got != want {
			t.Errorf("question %d %q:\nreused: %s\nfresh:  %s", i, qa.Question, got, want)
		}
	}
}

// TestFirstQuestionsAtOnce: goroutines asking a fresh translator its
// first questions together build its artifacts once and decide what
// serial translations do (run it under -race). Grounding is off: it
// reads the database under its lock before the translator reaches
// its artifacts, which orders the goroutines for the race detector
// and hides an unguarded build.
func TestFirstQuestionsAtOnce(t *testing.T) {
	w := workload.GenNL2SQL(8, 0.3, 4)
	mk := func() *Translator {
		tr := NewTranslator(w.DB, nil, 3)
		tr.Channel = nlmodel.Channel{HallucinationRate: 0.1, Fabrications: w.Fabrications}
		tr.Options.UseGrounding = false
		return tr
	}
	serial := mk()
	want := make([]string, len(w.Pairs))
	for i, qa := range w.Pairs {
		want[i] = outcome(serial.Translate(qa.Question))
	}
	shared := mk()
	got := make([]string, len(w.Pairs))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i, qa := range w.Pairs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[i] = outcome(shared.Translate(qa.Question))
		}()
	}
	close(start)
	wg.Wait()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("concurrent first questions decided differently:\ngot:  %q\nwant: %q", got, want)
	}
}

// passHook is a fault hook that is consulted and injects nothing, for
// both the model's seam and the database's.
type passHook struct{}

func (passHook) Inject(string) error                            { return nil }
func (passHook) CorruptTokens(_ string, toks []string) []string { return toks }

// TestModelFaultHookKeepsExecutionMemo: the model's fault hook is
// consulted before a candidate reaches the execution memo, so with only
// that hook set a round still runs each distinct candidate once. A
// database fault hook, consulted once per scan, runs every candidate.
func TestModelFaultHookKeepsExecutionMemo(t *testing.T) {
	w := workload.GenNL2SQL(30, 0.3, 5)
	g := ground.NewGrounder(nil, w.DB, w.Vocab)
	channel := nlmodel.Channel{HallucinationRate: 0.1, Fabrications: w.Fabrications}
	run := func(dbFaults bool) (repeats int) {
		tr := NewTranslator(w.DB, g, 0)
		tr.Channel = channel
		tr.Faults = passHook{}
		if dbFaults {
			w.DB.Faults = passHook{}
			defer func() { w.DB.Faults = nil }()
		}
		for i, qa := range w.Pairs {
			tr.Seed = int64(i)
			res, err := tr.Translate(qa.Question)
			if err != nil {
				t.Fatalf("question %d %q: %v", i, qa.Question, err)
			}
			distinct := map[string]bool{}
			for _, c := range res.Candidates {
				distinct[c] = true
			}
			want := len(distinct)
			if dbFaults {
				want = len(res.Candidates)
			}
			if res.Executions != want {
				t.Errorf("database faults %t, question %d %q: %d executions for %d candidates, %d distinct; want %d",
					dbFaults, i, qa.Question, res.Executions, len(res.Candidates), len(distinct), want)
			}
			repeats += len(res.Candidates) - len(distinct)
		}
		return repeats
	}
	if run(false) == 0 {
		t.Fatal("no round repeated a candidate, so the memo was never exercised")
	}
	run(true)
}
