package experiments

import (
	"math/rand"

	"github.com/reliable-cda/cda/internal/ground"
	"github.com/reliable-cda/cda/internal/metrics"
	"github.com/reliable-cda/cda/internal/nl2sql"
	"github.com/reliable-cda/cda/internal/nlmodel"
	"github.com/reliable-cda/cda/internal/sqldb"
	"github.com/reliable-cda/cda/internal/uncertainty"
	"github.com/reliable-cda/cda/internal/workload"
)

// E5Row measures one confidence scheme.
type E5Row struct {
	Scheme   string
	ECE      float64
	Brier    float64
	AURC     float64
	Coverage float64 // at the 0.5 abstention threshold
	SelAcc   float64 // selective accuracy at that threshold
}

// E5Result is the P4 Soundness calibration experiment: raw LLM
// self-confidence vs. consistency-based UQ vs. histogram-recalibrated
// consistency, over a noisy NL2SQL workload with known ground truth.
type E5Result struct {
	N             int
	Hallucination float64
	Rows          []E5Row
	// AbstainedWrong / AnsweredWrong at the combined scheme,
	// demonstrating that abstention absorbs errors.
	Answered int
}

// RunE5 collects (confidence, correct) pairs under three schemes.
func RunE5(n int, hallucination float64, seed int64) (*E5Result, error) {
	w := workload.GenNL2SQL(n, 0.3, seed)
	grounder := ground.NewGrounder(nil, w.DB, w.Vocab)
	engine := sqldb.NewEngine(w.DB)
	rng := rand.New(rand.NewSource(seed))
	raw := nlmodel.RawConfidence{Base: 0.9, Noise: 0.04}

	// Scheme 1's translator is the generation-only system — a single
	// unchecked sample, raw self-reported confidence independent of
	// truth (the paper's "relying solely on an LLM" case); scheme 2's
	// is the verified pipeline.
	channel := nlmodel.Channel{HallucinationRate: hallucination, Fabrications: w.Fabrications}
	baseTr := nl2sql.NewTranslator(w.DB, grounder, seed)
	baseTr.Channel = channel
	baseTr.Options = nl2sql.Options{UseGrounding: true, Samples: 1, MaxRepairAttempts: 1}
	fullTr := nl2sql.NewTranslator(w.DB, grounder, seed)
	fullTr.Channel = channel

	var rawPreds, consPreds, entPreds []metrics.Prediction
	res := &E5Result{N: n, Hallucination: hallucination}
	for i, qa := range w.Pairs {
		gold, err := engine.Query(qa.GoldSQL)
		if err != nil {
			return nil, err
		}
		matches := func(out *nl2sql.Translation) bool {
			return !out.Abstained && out.Result != nil && out.Result.Fingerprint() == gold.Fingerprint()
		}

		// Scheme 1: the generation-only system's raw confidence.
		baseTr.Seed = seed + int64(i)
		baseOut, err := baseTr.Translate(qa.Question)
		if err != nil {
			continue
		}
		rawPreds = append(rawPreds, metrics.Prediction{
			Confidence: raw.Score(rng),
			Correct:    matches(baseOut),
		})

		// Scheme 2: the verified pipeline with consistency agreement
		// as confidence (abstention = confidence 0).
		fullTr.Seed = seed + int64(i)
		fullOut, err := fullTr.Translate(qa.Question)
		if err != nil {
			continue
		}
		if !fullOut.Abstained {
			res.Answered++
		}
		conf := fullOut.Confidence
		entConf := uncertainty.EntropyConfidence(fullOut.Votes)
		if fullOut.Abstained {
			conf, entConf = 0, 0
		}
		consPreds = append(consPreds, metrics.Prediction{Confidence: conf, Correct: matches(fullOut)})
		entPreds = append(entPreds, metrics.Prediction{Confidence: entConf, Correct: matches(fullOut)})
	}

	// Scheme 3: histogram-recalibrated consistency, fit on the first
	// half, evaluated on the second.
	half := len(consPreds) / 2
	cal := uncertainty.NewHistogram(10)
	if err := cal.Fit(consPreds[:half]); err != nil {
		return nil, err
	}
	var calPreds []metrics.Prediction
	for _, p := range consPreds[half:] {
		c, err := cal.Calibrate(p.Confidence)
		if err != nil {
			return nil, err
		}
		calPreds = append(calPreds, metrics.Prediction{Confidence: c, Correct: p.Correct})
	}

	for _, s := range []struct {
		name  string
		preds []metrics.Prediction
	}{
		{"raw LLM self-confidence", rawPreds},
		{"consistency-based UQ", consPreds},
		{"semantic-entropy UQ", entPreds},
		{"consistency + recalibration", calPreds},
	} {
		row, err := e5Row(s.name, s.preds)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func e5Row(name string, preds []metrics.Prediction) (E5Row, error) {
	ece, err := metrics.ECE(preds, 10)
	if err != nil {
		return E5Row{}, err
	}
	brier, err := metrics.Brier(preds)
	if err != nil {
		return E5Row{}, err
	}
	aurc, err := metrics.AURC(preds)
	if err != nil {
		return E5Row{}, err
	}
	cov, acc := metrics.SelectiveAccuracy(preds, 0.5)
	return E5Row{Scheme: name, ECE: ece, Brier: brier, AURC: aurc, Coverage: cov, SelAcc: acc}, nil
}

// Table renders the calibration comparison.
func (r *E5Result) Table() *Table {
	t := &Table{
		Title:   "E5 — confidence calibration (P4 Soundness)",
		Columns: []string{"scheme", "ECE", "Brier", "AURC", "coverage@0.5", "sel. acc@0.5"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Scheme, f3(row.ECE), f3(row.Brier), f3(row.AURC), pct(row.Coverage), pct(row.SelAcc),
		})
	}
	t.Notes = append(t.Notes,
		"expected shape: raw self-confidence is badly calibrated (high ECE);",
		"consistency-based UQ orders errors (lower AURC); recalibration drives ECE toward 0;",
		"abstaining below 0.5 trades coverage for much higher selective accuracy.",
	)
	return t
}
