package experiments

import (
	"fmt"
	"strings"

	"github.com/reliable-cda/cda/internal/ground"
	"github.com/reliable-cda/cda/internal/metrics"
	"github.com/reliable-cda/cda/internal/nl2sql"
	"github.com/reliable-cda/cda/internal/nlmodel"
	"github.com/reliable-cda/cda/internal/sqldb"
	"github.com/reliable-cda/cda/internal/workload"
)

// PipelineStats aggregates one NL2SQL configuration's outcomes over a
// workload.
type PipelineStats struct {
	Name string
	// ExecAccuracy: answered AND result matches the gold query's
	// result multiset.
	ExecAccuracy float64
	// WrongRate: answered but with a different result (the dangerous
	// case the paper wants driven to zero).
	WrongRate float64
	// AbstainRate: declined to answer.
	AbstainRate float64
	// HallucinatedID: fraction of emitted SQL containing identifiers
	// outside the schema.
	HallucinatedID float64
	// AvgConfidence of answered questions.
	AvgConfidence float64
	// Outcomes holds the per-question 1/0 correctness for bootstrap
	// confidence intervals on ExecAccuracy.
	Outcomes []float64
}

// RunPipeline evaluates one option set over the workload at the given
// channel noise.
func RunPipeline(name string, w *workload.NL2SQLWorkload, opts nl2sql.Options, hallucination float64, seed int64) (*PipelineStats, error) {
	grounder := ground.NewGrounder(nil, w.DB, w.Vocab)
	engine := sqldb.NewEngine(w.DB)
	valid := map[string]bool{}
	for _, t := range w.DB.Tables() {
		valid[strings.ToLower(t.Name)] = true
		for _, c := range t.Schema() {
			valid[strings.ToLower(c.Name)] = true
		}
	}

	stats := &PipelineStats{Name: name}
	var correct, wrong, abstained, hallucinated int
	var confSum float64
	answered := 0
	tr := nl2sql.NewTranslator(w.DB, grounder, seed)
	tr.Channel = nlmodel.Channel{HallucinationRate: hallucination, Fabrications: w.Fabrications}
	tr.Options = opts
	for i, qa := range w.Pairs {
		tr.Seed = seed + int64(i)
		res, err := tr.Translate(qa.Question)
		if err != nil {
			abstained++ // out-of-grammar: treated as a clarification turn
			stats.Outcomes = append(stats.Outcomes, 0)
			continue
		}
		if hasInvalidIdentifier(res.SQL, valid) {
			hallucinated++
		}
		if res.Abstained {
			abstained++
			stats.Outcomes = append(stats.Outcomes, 0)
			continue
		}
		answered++
		confSum += res.Confidence
		goldRes, err := engine.Query(qa.GoldSQL)
		if err != nil {
			return nil, err
		}
		if res.Result != nil && res.Result.Fingerprint() == goldRes.Fingerprint() {
			correct++
			stats.Outcomes = append(stats.Outcomes, 1)
		} else {
			wrong++
			stats.Outcomes = append(stats.Outcomes, 0)
		}
	}
	n := float64(len(w.Pairs))
	stats.ExecAccuracy = float64(correct) / n
	stats.WrongRate = float64(wrong) / n
	stats.AbstainRate = float64(abstained) / n
	stats.HallucinatedID = float64(hallucinated) / n
	if answered > 0 {
		stats.AvgConfidence = confSum / float64(answered)
	}
	return stats, nil
}

func hasInvalidIdentifier(sql string, valid map[string]bool) bool {
	toks, err := sqldb.Lex(sql)
	if err != nil {
		return true
	}
	for _, tk := range toks {
		if tk.Type == sqldb.TokIdent && !valid[strings.ToLower(tk.Text)] {
			return true
		}
	}
	return false
}

// E7Result is the reliability-stage ablation ladder.
type E7Result struct {
	N             int
	SynonymRate   float64
	Hallucination float64
	Stages        []*PipelineStats
}

// RunE7 evaluates the four-stage ladder on one workload.
func RunE7(n int, synonymRate, hallucination float64, seed int64) (*E7Result, error) {
	w := workload.GenNL2SQL(n, synonymRate, seed)
	res := &E7Result{N: n, SynonymRate: synonymRate, Hallucination: hallucination}
	stages := []struct {
		name string
		opts nl2sql.Options
	}{
		{"base (LLM-only)", nl2sql.Options{Samples: 1, MaxRepairAttempts: 1}},
		{"+grounding", nl2sql.Options{UseGrounding: true, Samples: 1, MaxRepairAttempts: 1}},
		{"+constrained", nl2sql.Options{UseGrounding: true, UseConstrained: true, Samples: 1, MaxRepairAttempts: 3}},
		{"+reranking", nl2sql.Options{UseGrounding: true, UseConstrained: true, UseReranking: true, RerankPool: 4, Samples: 1, MaxRepairAttempts: 3}},
		{"+verification", nl2sql.DefaultOptions()},
	}
	for _, st := range stages {
		s, err := RunPipeline(st.name, w, st.opts, hallucination, seed)
		if err != nil {
			return nil, err
		}
		res.Stages = append(res.Stages, s)
	}
	return res, nil
}

// Table renders the ablation ladder.
func (r *E7Result) Table() *Table {
	t := &Table{
		Title: "E7 — NL2SQL reliability ladder (exec accuracy per stage)",
		Columns: []string{
			"stage", "exec acc", "95% CI", "wrong", "abstain", "halluc. ids", "avg conf",
		},
	}
	for _, s := range r.Stages {
		ci := "—"
		if lo, hi, err := metrics.Bootstrap(s.Outcomes, 2000, 0.95, 1); err == nil {
			ci = fmt.Sprintf("[%s, %s]", pct(lo), pct(hi))
		}
		t.Rows = append(t.Rows, []string{
			s.Name, pct(s.ExecAccuracy), ci, pct(s.WrongRate), pct(s.AbstainRate),
			pct(s.HallucinatedID), f2(s.AvgConfidence),
		})
	}
	t.Notes = append(t.Notes,
		"expected shape: accuracy increases monotonically down the ladder;",
		"verification converts residual wrong answers into abstentions.",
	)
	return t
}
