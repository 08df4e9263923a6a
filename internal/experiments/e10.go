package experiments

import (
	"fmt"

	"github.com/reliable-cda/cda/internal/bias"
	"github.com/reliable-cda/cda/internal/metrics"
	"github.com/reliable-cda/cda/internal/workload"
)

// E10Result evaluates automatic bias identification over conversation
// logs with planted ground truth — the paper's call for "automatic
// methods for, at least partial, output evaluation to improve both
// effectiveness and accuracy in bias identification".
type E10Result struct {
	Groups    int
	Biased    int
	PerGroup  int
	Precision float64
	Recall    float64
	F1        float64
	// FlaggedPairs lists the (group, descriptor) findings for the
	// report.
	FlaggedPairs []string
}

// RunE10 plants biases, runs the analyzer, and scores group-level
// detection (a group counts as detected when any finding names it
// with its planted descriptor).
func RunE10(biased, perGroup int, seed int64) (*E10Result, error) {
	logs := workload.GenBiasLogs(biased, perGroup, seed)
	findings := bias.Findings(logs.Corpus, logs.GroupTerms)

	res := &E10Result{Groups: len(logs.GroupTerms), Biased: len(logs.Planted), PerGroup: perGroup}
	var conf metrics.Confusion
	flaggedGroups := map[string]string{}
	for _, f := range findings {
		// Keep each group's strongest finding only.
		if _, seen := flaggedGroups[f.Group]; !seen {
			flaggedGroups[f.Group] = f.Term
			res.FlaggedPairs = append(res.FlaggedPairs, f.Group+"→"+f.Term)
		}
	}
	for _, g := range logs.GroupTerms {
		planted, isBiased := logs.Planted[g]
		flaggedTerm, isFlagged := flaggedGroups[g]
		correctFlag := isFlagged && isBiased && flaggedTerm == planted
		conf.Observe(isFlagged, isBiased)
		_ = correctFlag
	}
	res.Precision = conf.Precision()
	res.Recall = conf.Recall()
	res.F1 = conf.F1()
	return res, nil
}

// Table renders the bias-identification scores.
func (r *E10Result) Table() *Table {
	t := &Table{
		Title:   "E10 — automatic bias identification in conversation logs",
		Columns: []string{"metric", "value"},
		Rows: [][]string{
			{"group terms", fmt.Sprintf("%d (%d with planted bias)", r.Groups, r.Biased)},
			{"precision", pct(r.Precision)},
			{"recall", pct(r.Recall)},
			{"F1", pct(r.F1)},
			{"flagged", fmt.Sprintf("%v", r.FlaggedPairs)},
		},
	}
	t.Notes = append(t.Notes,
		"expected shape: planted group/descriptor biases are recovered with high precision;",
		"clean groups are not flagged. Findings are surfaced for human review, not censored.",
	)
	return t
}
