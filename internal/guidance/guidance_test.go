package guidance

import (
	"strings"
	"testing"
)

// trainedGraph records sessions where discover→clarify→analyze
// succeeds and discover→query (skipping clarification) mostly fails.
func trainedGraph() *Graph {
	g := NewGraph()
	for i := 0; i < 20; i++ {
		g.Record([]Action{ActDiscover, ActClarify, ActDescribe, ActAnalyze}, true)
	}
	for i := 0; i < 10; i++ {
		g.Record([]Action{ActDiscover, ActQuery}, false)
	}
	g.Record([]Action{ActDiscover, ActQuery}, true)
	return g
}

func TestRecordAndRates(t *testing.T) {
	g := trainedGraph()
	good := g.SuccessRate(ActDiscover, ActClarify)
	bad := g.SuccessRate(ActDiscover, ActQuery)
	if good <= bad {
		t.Errorf("clarify rate %v <= query rate %v", good, bad)
	}
	if g.Visits(ActDiscover, ActClarify) != 20 {
		t.Errorf("visits = %d", g.Visits(ActDiscover, ActClarify))
	}
	// Unseen transition gets the 0.5 prior.
	if got := g.SuccessRate(ActAnalyze, ActDiscover); got != 0.5 {
		t.Errorf("prior = %v", got)
	}
}

func TestNextSteps(t *testing.T) {
	g := trainedGraph()
	steps := g.NextSteps(ActDiscover, 3)
	if len(steps) != 3 {
		t.Fatalf("steps = %v", steps)
	}
	if steps[0].Action != ActClarify {
		t.Errorf("top step = %+v", steps[0])
	}
	if steps[0].Reason == "" || !strings.Contains(steps[0].Reason, "past sessions") {
		t.Errorf("reason = %q", steps[0].Reason)
	}
	// Query (mostly failing) must rank below clarify.
	for i, s := range steps {
		if s.Action == ActQuery && i == 0 {
			t.Error("failing transition ranked first")
		}
	}
}

func TestNextStepsExcludesSelfAndStart(t *testing.T) {
	g := NewGraph()
	steps := g.NextSteps(ActDiscover, 10)
	for _, s := range steps {
		if s.Action == ActDiscover || s.Action == ActStart {
			t.Errorf("invalid step %v", s.Action)
		}
	}
}

func TestPlanPrefersSuccessfulRoute(t *testing.T) {
	g := trainedGraph()
	path, prob := g.Plan(ActDiscover, 6)
	if len(path) == 0 || path[len(path)-1] != ActDone {
		t.Fatalf("path = %v", path)
	}
	if prob <= 0 || prob > 1 {
		t.Errorf("prob = %v", prob)
	}
	// The successful recorded route goes through clarify.
	if !containsAction(path, ActClarify) {
		t.Errorf("plan skipped clarify: %v", path)
	}
}

func TestPlanDepthZero(t *testing.T) {
	g := trainedGraph()
	if path, prob := g.Plan(ActDiscover, 0); path != nil || prob != 0 {
		t.Errorf("depth-0 plan = %v %v", path, prob)
	}
}

func TestPlanAvoidsRevisits(t *testing.T) {
	g := trainedGraph()
	path, _ := g.Plan(ActStart, 7)
	seen := map[Action]int{}
	for _, a := range path {
		seen[a]++
	}
	for a, n := range seen {
		if a != ActDone && n > 1 {
			t.Errorf("action %v visited %d times", a, n)
		}
	}
}

func TestProfileExpertise(t *testing.T) {
	novice := []string{"show me data about jobs", "what is this?"}
	if got := ProfileExpertise(novice); got != Novice {
		t.Errorf("novice = %v", got)
	}
	expert := []string{
		"run a seasonal decomposition with residual diagnostics",
		"what is the autocorrelation at lag 12",
		"group by canton and report the variance",
	}
	if got := ProfileExpertise(expert); got != Expert {
		t.Errorf("expert = %v", got)
	}
	mixed := []string{"show me data", "what about the trend?", "ok", "thanks", "bye"}
	if got := ProfileExpertise(mixed); got != Intermediate {
		t.Errorf("mixed = %v", got)
	}
	if got := ProfileExpertise(nil); got != Novice {
		t.Errorf("empty = %v", got)
	}
}

func TestVerbosity(t *testing.T) {
	if !(Verbosity(Expert) < Verbosity(Intermediate) && Verbosity(Intermediate) < Verbosity(Novice)) {
		t.Error("verbosity not decreasing with expertise")
	}
}

func TestExpertiseString(t *testing.T) {
	if Novice.String() != "novice" || Expert.String() != "expert" || Intermediate.String() != "intermediate" {
		t.Error("expertise strings wrong")
	}
}

func TestSuggestText(t *testing.T) {
	g := trainedGraph()
	s := SuggestText(g.NextSteps(ActDiscover, 2))
	if !strings.HasPrefix(s, "You could next:") {
		t.Errorf("suggest = %q", s)
	}
	if SuggestText(nil) != "" {
		t.Error("empty suggestions must render empty")
	}
}
