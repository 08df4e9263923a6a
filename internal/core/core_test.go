package core

import (
	"context"
	"strings"
	"sync"
	"testing"

	"github.com/reliable-cda/cda/internal/dialogue"
	"github.com/reliable-cda/cda/internal/workload"
)

func swissSystem(t testing.TB, mutate func(*Config)) *System {
	t.Helper()
	d := workload.NewSwissDomain(1)
	cfg := Config{
		DB:      d.DB,
		Catalog: d.Catalog,
		KG:      d.KG,
		Vocab:   d.Vocab,
		Now:     d.Now,
		Seed:    7,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	return New(cfg)
}

func respond(t *testing.T, s *System, sess *dialogue.Session, text string) *Answer {
	t.Helper()
	ans, err := s.Respond(context.Background(), sess, text)
	if err != nil {
		t.Fatalf("Respond(%q): %v", text, err)
	}
	return ans
}

// TestFigure1Dialogue replays the paper's example conversation end to
// end and checks each annotated property.
func TestFigure1Dialogue(t *testing.T) {
	s := swissSystem(t, nil)
	sess := s.NewSession()
	turns := workload.Figure1Turns()

	// Turn 1: discovery with grounding of "working force" (P1, P2, P3, P5).
	a1 := respond(t, s, sess, turns[0])
	if a1.Abstained {
		t.Fatalf("turn 1 abstained: %+v", a1)
	}
	if !strings.Contains(a1.Text, "I am assuming") {
		t.Errorf("turn 1 missing grounding assumption: %q", a1.Text)
	}
	if !strings.Contains(a1.Text, "Barometer") || !strings.Contains(a1.Text, "Employment") {
		t.Errorf("turn 1 missing datasets: %q", a1.Text)
	}
	if a1.Clarification == "" {
		t.Error("turn 1 should ask a follow-up (P5 Guidance)")
	}
	if a1.Confidence <= 0.5 {
		t.Errorf("turn 1 confidence = %v", a1.Confidence)
	}
	if a1.Provenance == nil || !a1.Provenance.CheckLosslessness().Lossless {
		t.Error("turn 1 provenance not lossless")
	}

	// Turn 2: describe the barometer with source (P4 provenance).
	a2 := respond(t, s, sess, turns[1])
	if !strings.Contains(a2.Text, "monthly leading indicator") {
		t.Errorf("turn 2 text = %q", a2.Text)
	}
	foundSource := false
	for _, src := range a2.Explanation.Sources {
		if strings.Contains(src, "arbeit.swiss") {
			foundSource = true
		}
	}
	if !foundSource {
		t.Errorf("turn 2 sources = %v", a2.Explanation.Sources)
	}

	// Turn 3: choose the barometer; focus moves.
	a3 := respond(t, s, sess, turns[2])
	if sess.Focus != "barometer" {
		t.Errorf("focus = %q", sess.Focus)
	}
	if !strings.Contains(a3.Text, "arbeit.swiss") {
		t.Errorf("turn 3 text = %q", a3.Text)
	}

	// Turn 4: seasonality analysis — the Figure 1 headline numbers.
	a4 := respond(t, s, sess, turns[3])
	if a4.Abstained {
		t.Fatalf("turn 4 abstained: %+v", a4)
	}
	if !strings.Contains(a4.Text, "seasonal period is 6") {
		t.Errorf("turn 4 text = %q", a4.Text)
	}
	if !strings.Contains(a4.Text, "confidence") {
		t.Errorf("turn 4 missing confidence: %q", a4.Text)
	}
	if a4.Code == "" || !strings.Contains(a4.Code, "Decompose") {
		t.Errorf("turn 4 missing code snippet: %q", a4.Code)
	}
	if !strings.Contains(a4.Text, "enough data") {
		t.Errorf("turn 4 missing sufficiency acknowledgement: %q", a4.Text)
	}
	if a4.Provenance == nil {
		t.Fatal("turn 4 missing provenance")
	}
	if rep := a4.Provenance.CheckInvertibility(); !rep.Invertible {
		t.Errorf("turn 4 provenance not invertible: %+v", rep)
	}
	srcs, err := a4.Provenance.SourcesOf(a4.AnswerNode)
	if err != nil || len(srcs) == 0 {
		t.Errorf("turn 4 sources = %v, %v", srcs, err)
	}
}

func TestQueryPathVerified(t *testing.T) {
	s := swissSystem(t, nil)
	sess := s.NewSession()
	ans := respond(t, s, sess, "how many employment where canton is Zurich")
	if ans.Abstained {
		t.Fatalf("abstained: %+v", ans)
	}
	if !strings.Contains(ans.Code, "COUNT") || !strings.Contains(ans.Code, "FROM employment") {
		t.Errorf("code = %q", ans.Code)
	}
	if !strings.Contains(ans.Text, "20") { // 10 years × 2 types
		t.Errorf("text = %q", ans.Text)
	}
	if !ans.Evidence.Verified {
		t.Error("query answer not marked verified")
	}
	if len(ans.Explanation.Sources) == 0 {
		t.Errorf("no sources: %+v", ans.Explanation)
	}
}

func TestQueryCacheHit(t *testing.T) {
	s := swissSystem(t, nil)
	sess := s.NewSession()
	q := "how many employment"
	respond(t, s, sess, q)
	before := s.CacheHitRate()
	respond(t, s, sess, q)
	if s.CacheHitRate() <= before {
		t.Errorf("cache hit rate did not rise: %v -> %v", before, s.CacheHitRate())
	}
}

func TestUnknownIntentAsksBack(t *testing.T) {
	s := swissSystem(t, nil)
	sess := s.NewSession()
	ans := respond(t, s, sess, "zorp blat quux")
	if !ans.Abstained || ans.Clarification == "" {
		t.Errorf("answer = %+v", ans)
	}
}

func TestAnalyzeWithoutFocusClarifies(t *testing.T) {
	s := swissSystem(t, nil)
	sess := s.NewSession()
	ans := respond(t, s, sess, "show me the seasonality insights")
	if !ans.Abstained || ans.Clarification == "" {
		t.Errorf("answer = %+v", ans)
	}
}

func TestUnparsableQueryClarifies(t *testing.T) {
	s := swissSystem(t, nil)
	sess := s.NewSession()
	ans := respond(t, s, sess, "how many")
	if !ans.Abstained {
		t.Errorf("answer = %+v", ans)
	}
}

func TestDescribeUngroundedAbstains(t *testing.T) {
	s := swissSystem(t, nil)
	sess := s.NewSession()
	ans := respond(t, s, sess, "what is the gross national happiness index")
	if !ans.Abstained {
		t.Errorf("ungrounded describe must abstain: %+v", ans)
	}
	if ans.Confidence >= 0.5 {
		t.Errorf("confidence = %v", ans.Confidence)
	}
}

func TestGuidanceSuggestionsPresent(t *testing.T) {
	s := swissSystem(t, nil)
	sess := s.NewSession()
	ans := respond(t, s, sess, "give me an overview of employment data")
	if ans.Suggestions == "" {
		t.Error("no suggestions with guidance enabled")
	}
	s2 := swissSystem(t, func(c *Config) { c.DisableGuidance = true })
	sess2 := s2.NewSession()
	ans2, err := s2.Respond(context.Background(), sess2, "give me an overview of employment data")
	if err != nil {
		t.Fatal(err)
	}
	if ans2.Suggestions != "" {
		t.Error("suggestions present with guidance disabled")
	}
}

func TestHallucinationMakesSystemAbstainNotLie(t *testing.T) {
	// With a catastrophically noisy model and verification on, wrong
	// answers should mostly be converted into abstentions.
	s := swissSystem(t, func(c *Config) {
		c.HallucinationRate = 0.5
		c.Fabrications = []string{"bogus_col", "fake_table", "zzz"}
	})
	sess := s.NewSession()
	abstainOrCorrect := 0
	const trials = 10
	questions := []string{
		"how many employment",
		"what is the average value in barometer",
		"how many employment where canton is Bern",
		"what is the maximum value in barometer",
		"list the value of barometer",
		"how many barometer",
		"what is the minimum value in barometer",
		"how many employment where employment_type is full_time",
		"what is the total employees in employment",
		"how many employment where canton is Geneva",
	}
	for _, q := range questions {
		ans := respond(t, s, sess, q)
		if ans.Abstained || ans.Evidence.Verified {
			abstainOrCorrect++
		}
	}
	if abstainOrCorrect < trials*7/10 {
		t.Errorf("only %d/%d answers were verified-or-abstained under heavy noise", abstainOrCorrect, trials)
	}
}

func TestDeterministicResponses(t *testing.T) {
	run := func() string {
		s := swissSystem(t, nil)
		sess := s.NewSession()
		var sb strings.Builder
		for _, turn := range workload.Figure1Turns() {
			ans, err := s.Respond(context.Background(), sess, turn)
			if err != nil {
				t.Fatal(err)
			}
			sb.WriteString(ans.Text + "\n")
		}
		return sb.String()
	}
	if run() != run() {
		t.Error("system responses are not deterministic")
	}
}

func TestProvenanceDisabledStillAnswers(t *testing.T) {
	s := swissSystem(t, func(c *Config) { c.DisableProvenance = true })
	sess := s.NewSession()
	ans := respond(t, s, sess, "how many employment")
	if ans.Abstained {
		t.Errorf("abstained: %+v", ans)
	}
}

// TestConcurrentRespondAcrossSessions: many sessions asking mixed
// questions at once must be race-free (the shared rng is serialized,
// the cache singleflights) and still answer correctly.
func TestConcurrentRespondAcrossSessions(t *testing.T) {
	s := swissSystem(t, nil)
	questions := []string{
		"how many employment",
		"how many employment where canton is Zurich",
		"what is the average value where canton is Bern",
		"how many employment", // duplicate: cache hit or joined flight
		"zorp blat quux",      // unknown intent: asks back, no error
		"list the canton of employment",
	}
	var wg sync.WaitGroup
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sess := s.NewSession()
			for i := 0; i < 4; i++ {
				q := questions[(g+i)%len(questions)]
				ans, err := s.Respond(context.Background(), sess, q)
				if err != nil {
					t.Errorf("Respond(%q): %v", q, err)
					return
				}
				if ans == nil || ans.Text == "" {
					t.Errorf("Respond(%q): empty answer", q)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
