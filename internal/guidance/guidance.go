// Package guidance implements the paper's P5 (Guidance): a
// graph-based model of human/system interactions whose edges carry
// success statistics from past sessions, next-step recommendation
// based on previously successful task sequences, speculative planning
// toward an analytical goal, and user-expertise profiling that adapts
// how the system talks.
package guidance

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"github.com/reliable-cda/cda/internal/textindex"
)

// Action is one step kind in an exploration session — the node type
// of the interaction graph.
type Action string

// The canonical CDA actions.
const (
	ActStart    Action = "start"
	ActDiscover Action = "discover"
	ActClarify  Action = "clarify"
	ActDescribe Action = "describe"
	ActQuery    Action = "query"
	ActAnalyze  Action = "analyze"
	ActDone     Action = "done"
)

// AllActions lists every action in a stable order.
var AllActions = []Action{ActStart, ActDiscover, ActClarify, ActDescribe, ActQuery, ActAnalyze, ActDone}

// Graph is the interaction graph: transition counts and successes
// between actions, learned from recorded sessions. Safe for
// concurrent use.
type Graph struct {
	mu      sync.RWMutex
	visits  map[[2]Action]int // transition count
	success map[[2]Action]int // transitions on sessions that reached their goal
}

// NewGraph creates an empty interaction graph.
func NewGraph() *Graph {
	return &Graph{visits: map[[2]Action]int{}, success: map[[2]Action]int{}}
}

// Record adds one session path with its outcome. A path is the
// sequence of actions taken (ActStart is prepended automatically).
func (g *Graph) Record(path []Action, success bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	prev := ActStart
	for _, a := range path {
		key := [2]Action{prev, a}
		g.visits[key]++
		if success {
			g.success[key]++
		}
		prev = a
	}
	key := [2]Action{prev, ActDone}
	g.visits[key]++
	if success {
		g.success[key]++
	}
}

// SuccessRate estimates P(session success | transition from→to) with
// add-one smoothing; unseen transitions get the prior 0.5.
func (g *Graph) SuccessRate(from, to Action) float64 {
	g.mu.RLock()
	defer g.mu.RUnlock()
	key := [2]Action{from, to}
	return (float64(g.success[key]) + 1) / (float64(g.visits[key]) + 2)
}

// Visits returns how often the transition was taken.
func (g *Graph) Visits(from, to Action) int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.visits[[2]Action{from, to}]
}

// Step is one recommended next action with its score and reason.
type Step struct {
	Action Action
	Score  float64
	Reason string
}

// NextSteps ranks the possible next actions from the current one by
// smoothed success rate, breaking ties toward more-visited edges and
// then action order. Unvisited transitions are included (exploration)
// but rank below any visited one with equal rate.
func (g *Graph) NextSteps(from Action, k int) []Step {
	var steps []Step
	for _, a := range AllActions {
		if a == ActStart || a == from {
			continue
		}
		rate := g.SuccessRate(from, a)
		v := g.Visits(from, a)
		steps = append(steps, Step{
			Action: a,
			Score:  rate,
			Reason: fmt.Sprintf("%.0f%% of %d past sessions succeeded after %s → %s", rate*100, v, from, a),
		})
	}
	sort.SliceStable(steps, func(i, j int) bool {
		if steps[i].Score != steps[j].Score {
			return steps[i].Score > steps[j].Score
		}
		vi, vj := g.Visits(from, steps[i].Action), g.Visits(from, steps[j].Action)
		if vi != vj {
			return vi > vj
		}
		return actionOrder(steps[i].Action) < actionOrder(steps[j].Action)
	})
	if len(steps) > k {
		steps = steps[:k]
	}
	return steps
}

func actionOrder(a Action) int {
	for i, x := range AllActions {
		if x == a {
			return i
		}
	}
	return len(AllActions)
}

// Plan finds the action sequence from `from` to ActDone maximizing
// the product of transition success rates (speculative planning over
// the interaction graph), up to maxDepth steps. Returns the path
// excluding `from`, including ActDone, with its probability.
//
// Planning only walks transitions that were actually observed —
// otherwise the optimistic smoothing prior would make never-tried
// shortcuts beat well-trodden successful routes. When no observed
// path reaches ActDone, it falls back to considering all transitions.
func (g *Graph) Plan(from Action, maxDepth int) ([]Action, float64) {
	if path, prob := g.plan(from, maxDepth, true); path != nil {
		return path, prob
	}
	return g.plan(from, maxDepth, false)
}

func (g *Graph) plan(from Action, maxDepth int, observedOnly bool) ([]Action, float64) {
	if maxDepth <= 0 {
		return nil, 0
	}
	type state struct {
		path []Action
		prob float64
		at   Action
	}
	best := state{prob: -1}
	var dfs func(s state, depth int)
	dfs = func(s state, depth int) {
		if s.at == ActDone {
			if s.prob > best.prob {
				best = s
			}
			return
		}
		if depth == 0 {
			return
		}
		for _, a := range AllActions {
			if a == ActStart || a == s.at {
				continue
			}
			// Skip revisits except the terminal.
			if a != ActDone && containsAction(s.path, a) {
				continue
			}
			if observedOnly && g.Visits(s.at, a) == 0 {
				continue
			}
			p := s.prob * g.SuccessRate(s.at, a)
			dfs(state{path: append(append([]Action{}, s.path...), a), prob: p, at: a}, depth-1)
		}
	}
	dfs(state{prob: 1, at: from}, maxDepth)
	if best.prob < 0 {
		return nil, 0
	}
	return best.path, best.prob
}

func containsAction(xs []Action, a Action) bool {
	for _, x := range xs {
		if x == a {
			return true
		}
	}
	return false
}

// Expertise levels inferred from a user's language.
type Expertise int

// Levels.
const (
	Novice Expertise = iota
	Intermediate
	Expert
)

// String names the level.
func (e Expertise) String() string {
	switch e {
	case Expert:
		return "expert"
	case Intermediate:
		return "intermediate"
	default:
		return "novice"
	}
}

// technical terms that signal analytics expertise.
var expertTerms = map[string]bool{
	"seasonality": true, "decomposition": true, "residual": true,
	"autocorrelation": true, "regression": true, "aggregate": true,
	"join": true, "median": true, "percentile": true, "confidence": true,
	"variance": true, "stddev": true, "group": true, "sql": true,
	"distribution": true, "correlation": true, "trend": true,
}

// ProfileExpertise scores the user's utterances: the fraction of
// turns containing technical vocabulary maps to a level
// (≥0.5 expert, ≥0.2 intermediate, else novice). Empty input is
// Novice.
func ProfileExpertise(userTurns []string) Expertise {
	if len(userTurns) == 0 {
		return Novice
	}
	technical := 0
	for _, turn := range userTurns {
		for _, tok := range textindex.Tokenize(turn) {
			if expertTerms[tok] {
				technical++
				break
			}
		}
	}
	frac := float64(technical) / float64(len(userTurns))
	switch {
	case frac >= 0.5:
		return Expert
	case frac >= 0.2:
		return Intermediate
	default:
		return Novice
	}
}

// Verbosity returns a multiplier for explanation length appropriate
// to the expertise level: novices get fuller explanations.
func Verbosity(e Expertise) float64 {
	switch e {
	case Expert:
		return 0.5
	case Intermediate:
		return 0.75
	default:
		return 1.0
	}
}

// SuggestText renders next-step recommendations as user-facing
// suggestions.
func SuggestText(steps []Step) string {
	if len(steps) == 0 {
		return ""
	}
	var parts []string
	for _, s := range steps {
		switch s.Action {
		case ActDiscover:
			parts = append(parts, "search for additional datasets")
		case ActClarify:
			parts = append(parts, "refine what you are looking for")
		case ActDescribe:
			parts = append(parts, "get a summary of a dataset")
		case ActQuery:
			parts = append(parts, "ask a specific question about the data")
		case ActAnalyze:
			parts = append(parts, "run a trend or seasonality analysis")
		case ActDone:
			parts = append(parts, "wrap up")
		}
	}
	return "You could next: " + strings.Join(parts, "; ") + "."
}
