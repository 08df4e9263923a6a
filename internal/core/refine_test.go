package core

import (
	"context"
	"strings"
	"testing"

	"github.com/reliable-cda/cda/internal/dialogue"
	"github.com/reliable-cda/cda/internal/uncertainty"
	"github.com/reliable-cda/cda/internal/workload"
)

func TestFollowUpQueryCarriesContext(t *testing.T) {
	s := swissSystem(t, nil)
	sess := s.NewSession()
	a1 := respond(t, s, sess, "how many employment where canton is Zurich")
	if a1.Abstained {
		t.Fatalf("turn 1 abstained: %+v", a1)
	}
	a2 := respond(t, s, sess, "and in Bern?")
	if a2.Abstained {
		t.Fatalf("follow-up abstained: %+v", a2)
	}
	if !strings.Contains(a2.Code, "Bern") || !strings.Contains(a2.Code, "employment") {
		t.Errorf("follow-up sql = %q", a2.Code)
	}
	if !strings.Contains(a2.Text, "20") {
		t.Errorf("follow-up text = %q", a2.Text)
	}
	// Aggregate pivot follow-up.
	a3 := respond(t, s, sess, "what is the total employees in employment where canton is Geneva")
	if a3.Abstained {
		t.Fatalf("turn 3 abstained: %+v", a3)
	}
	a4 := respond(t, s, sess, "and the maximum employees")
	if a4.Abstained {
		t.Fatalf("agg follow-up abstained: %+v", a4)
	}
	if !strings.Contains(a4.Code, "MAX") || !strings.Contains(a4.Code, "Geneva") {
		t.Errorf("agg follow-up sql = %q", a4.Code)
	}
}

func TestFollowUpWithoutContextClarifies(t *testing.T) {
	s := swissSystem(t, nil)
	sess := s.NewSession()
	ans := respond(t, s, sess, "and in Bern?")
	if !ans.Abstained || ans.Clarification == "" {
		t.Errorf("answer = %+v", ans)
	}
}

func TestFollowUpNotCached(t *testing.T) {
	s := swissSystem(t, nil)
	sess := s.NewSession()
	respond(t, s, sess, "how many employment where canton is Zurich")
	a := respond(t, s, sess, "and in Bern?")
	// Different context, same follow-up text: a second session asking
	// about barometer must not get the cached Bern answer.
	sess2 := s.NewSession()
	respond(t, s, sess2, "how many barometer")
	b := respond(t, s, sess2, "and in Bern?")
	if b.Code == a.Code && !b.Abstained {
		t.Errorf("follow-up answer leaked across contexts: %q", b.Code)
	}
}

func TestAskAndRefineYes(t *testing.T) {
	// Moderate noise so verification agreement often lands between 0
	// and the threshold, triggering the refine question.
	s := swissSystem(t, func(c *Config) {
		c.HallucinationRate = 0.28
		c.Fabrications = []string{"bogus1", "bogus2"}
	})
	s.policy = uncertainty.Policy{Threshold: 0.97}
	questions := []string{
		"how many employment where canton is Zurich",
		"what is the average value in barometer",
		"what is the total employees in employment",
		"how many employment where canton is Bern",
		"what is the maximum value in barometer",
	}
	var refined bool
	for _, q := range questions {
		sess := s.NewSession()
		ans := respond(t, s, sess, q)
		if ans.Clarification == "" || !strings.Contains(ans.Clarification, "Shall I run with it?") {
			continue
		}
		refined = true
		confirmed, err := s.Respond(context.Background(), sess, "yes")
		if err != nil {
			t.Fatal(err)
		}
		if confirmed.Abstained {
			t.Errorf("confirmed answer abstained: %+v", confirmed)
		}
		if confirmed.Text == "" || confirmed.Confidence <= ans.Confidence {
			t.Errorf("confirmation did not boost: %v -> %v", ans.Confidence, confirmed.Confidence)
		}
	}
	if !refined {
		t.Skip("no refine exchange triggered at this noise level; ask-and-refine path untested here")
	}
}

func TestAskAndRefineNo(t *testing.T) {
	s := swissSystem(t, func(c *Config) {
		c.HallucinationRate = 0.28
		c.Fabrications = []string{"bogus1", "bogus2"}
	})
	s.policy = uncertainty.Policy{Threshold: 0.97}
	for _, q := range []string{
		"how many employment where canton is Zurich",
		"what is the average value in barometer",
		"how many employment where canton is Bern",
	} {
		sess := s.NewSession()
		ans := respond(t, s, sess, q)
		if !strings.Contains(ans.Clarification, "Shall I run with it?") {
			continue
		}
		declined, err := s.Respond(context.Background(), sess, "no, that is wrong")
		if err != nil {
			t.Fatal(err)
		}
		if !declined.Abstained || declined.Clarification == "" {
			t.Errorf("declined = %+v", declined)
		}
		// A second "yes" must not resurrect the discarded candidate.
		again, _ := s.Respond(context.Background(), sess, "yes")
		if !again.Abstained {
			t.Errorf("stale pending answer resurrected: %+v", again)
		}
		return
	}
	t.Skip("no refine exchange triggered at this noise level")
}

func TestConfirmWithoutPending(t *testing.T) {
	s := swissSystem(t, nil)
	sess := s.NewSession()
	ans := respond(t, s, sess, "yes")
	if !ans.Abstained || !strings.Contains(ans.Text, "nothing pending") {
		t.Errorf("answer = %+v", ans)
	}
}

func TestIntentFollowUpClassification(t *testing.T) {
	for _, text := range []string{"and in Bern?", "what about Geneva", "and the maximum salary"} {
		if got := dialogue.ClassifyIntent(text); got != dialogue.IntentFollowUp {
			t.Errorf("ClassifyIntent(%q) = %v", text, got)
		}
	}
	for _, text := range []string{"yes", "No, I meant Bern", "exactly"} {
		if got := dialogue.ClassifyIntent(text); got != dialogue.IntentConfirm {
			t.Errorf("ClassifyIntent(%q) = %v", text, got)
		}
	}
}

func TestAnalyzeForecastIntent(t *testing.T) {
	s := swissSystem(t, nil)
	sess := s.NewSession()
	respond(t, s, sess, "Give me an overview of the working force in Switzerland")
	respond(t, s, sess, "I am interested in the barometer")
	ans := respond(t, s, sess, "can you forecast the seasonal trend for the next months")
	if ans.Abstained {
		t.Fatalf("forecast abstained: %+v", ans)
	}
	if !strings.Contains(ans.Text, "prediction intervals") || !strings.Contains(ans.Text, "t+6") {
		t.Errorf("forecast text = %q", ans.Text)
	}
	if !strings.Contains(ans.Code, "ForecastSeries") {
		t.Errorf("forecast code = %q", ans.Code)
	}
	if len(ans.Explanation.Sources) == 0 {
		t.Error("forecast missing sources")
	}
}

func TestAnalyzeAnomalyIntent(t *testing.T) {
	s := swissSystem(t, nil)
	sess := s.NewSession()
	respond(t, s, sess, "Give me an overview of the working force in Switzerland")
	respond(t, s, sess, "I am interested in the barometer")
	ans := respond(t, s, sess, "are there any anomalies in the data?")
	if ans.Abstained {
		t.Fatalf("anomaly analysis abstained: %+v", ans)
	}
	if !strings.Contains(ans.Text, "anomal") {
		t.Errorf("anomaly text = %q", ans.Text)
	}
	if !strings.Contains(ans.Code, "DetectAnomalies") {
		t.Errorf("anomaly code = %q", ans.Code)
	}
	if ans.Provenance == nil || !ans.Provenance.CheckInvertibility().Invertible {
		t.Error("anomaly provenance not invertible")
	}
}

func TestDescribeDocQAFallback(t *testing.T) {
	d := workload.NewSwissDomain(1)
	s := New(Config{
		DB: d.DB, Catalog: d.Catalog, KG: d.KG, Vocab: d.Vocab, Documents: d.Documents,
		Now: d.Now, Seed: 1,
	})
	sess := s.NewSession()
	// Not a KG entity or dataset name: answered from the methodology
	// document, verbatim and cited.
	ans := respond(t, s, sess, "explain the diffusion index used for hiring expectations")
	if ans.Abstained {
		t.Fatalf("docqa fallback abstained: %+v", ans)
	}
	if !strings.Contains(ans.Text, "diffusion index") {
		t.Errorf("text = %q", ans.Text)
	}
	found := false
	for _, src := range ans.Explanation.Sources {
		if strings.Contains(src, "arbeit.swiss") {
			found = true
		}
	}
	if !found {
		t.Errorf("sources = %v", ans.Explanation.Sources)
	}
	// Gibberish still abstains.
	none := respond(t, s, sess, "explain the quux frobnication constant")
	if !none.Abstained {
		t.Errorf("gibberish answered: %+v", none)
	}
}
