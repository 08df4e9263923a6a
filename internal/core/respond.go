package core

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"github.com/reliable-cda/cda/internal/catalog"
	"github.com/reliable-cda/cda/internal/dialogue"
	"github.com/reliable-cda/cda/internal/explain"
	"github.com/reliable-cda/cda/internal/nl2sql"
	"github.com/reliable-cda/cda/internal/obs"
	"github.com/reliable-cda/cda/internal/provenance"
	"github.com/reliable-cda/cda/internal/storage"
	"github.com/reliable-cda/cda/internal/timeseries"
	"github.com/reliable-cda/cda/internal/uncertainty"
)

// expandedQuestion runs vocabulary expansion when grounding is on.
func (s *System) expandedQuestion(text string) string {
	if s.cfg.DisableGrounding || s.cfg.Vocab == nil {
		return text
	}
	return s.cfg.Vocab.Expand(text)
}

// groundingStrength scores how well the question grounded, feeding
// the evidence combiner.
func (s *System) groundingStrength(text string) float64 {
	if s.grounder == nil {
		return 0
	}
	rep := s.grounder.Ground(text)
	if !rep.Grounded() {
		return 0
	}
	best := 0.0
	for _, l := range rep.Entities {
		if l.Score > best {
			best = l.Score
		}
	}
	for _, l := range rep.Schema {
		if l.Score > best {
			best = l.Score
		}
	}
	return best
}

// discover handles dataset-discovery turns (Figure 1, turn 1).
func (s *System) discover(sess *dialogue.Session, text string) (*Answer, error) {
	ans := &Answer{}
	if s.cfg.Catalog == nil {
		ans.Abstained = true
		ans.Text = "No data catalog is connected, so I cannot search for datasets."
		return ans, nil
	}
	expanded := s.expandedQuestion(text)
	recs := s.cfg.Catalog.Search(expanded, 3, s.cfg.Now)
	if len(recs) == 0 {
		ans.Evidence = uncertainty.Evidence{Unverifiable: true}
		ans.Text = "I could not find any dataset matching your question."
		return s.finalize(ans), nil
	}

	g := provenance.NewGraph()
	ansNode := g.AddNode(provenance.Node{Kind: provenance.KindAnswer, Label: "dataset recommendations for: " + text})
	q := g.AddNode(provenance.Node{Kind: provenance.KindQuery, Label: "catalog search",
		Meta: map[string]string{"query": "catalog.Search(" + quoteShort(expanded) + ")"}})
	if err := g.DerivedFrom(ansNode, q); err != nil {
		return nil, err
	}
	var offers []dialogue.Offer
	var lines []string
	for _, r := range recs {
		src := g.AddNode(provenance.Node{Kind: provenance.KindSource, Label: r.Dataset.Name,
			Meta: map[string]string{"uri": r.Dataset.Source, "dataset": r.Dataset.ID}})
		if err := g.DerivedFrom(q, src); err != nil {
			return nil, err
		}
		offers = append(offers, dialogue.Offer{ID: r.Dataset.ID, Label: r.Dataset.Name})
		lines = append(lines, fmt.Sprintf("- %s: %s (%s)", r.Dataset.Name, firstSentence(r.Dataset.Description), r.Reason))
	}
	var sb strings.Builder
	if expanded != text {
		sb.WriteString("I am assuming you are interested in " + assumption(expanded, text) + ".\n")
	}
	sb.WriteString("Our data sources contain:\n" + strings.Join(lines, "\n"))
	ans.Text = sb.String()
	if len(offers) > 1 {
		ans.Clarification = "Which of these would you prefer?"
		sess.SetOffers(offers, &dialogue.Clarification{Question: ans.Clarification, Options: offers})
	} else {
		sess.SetOffers(offers, nil)
		sess.Choose(offers[0])
	}
	ans.Provenance = g
	ans.AnswerNode = ansNode
	ans.Evidence = uncertainty.Evidence{
		Consistency:       recs[0].Relevance,
		GroundingStrength: s.groundingStrength(text),
		Verified:          true, // catalog lookup is deterministic and cited
	}
	return s.finalize(ans), nil
}

// assumption extracts what the expansion added, for the "I am
// assuming..." preamble.
func assumption(expanded, original string) string {
	add := strings.TrimPrefix(expanded, original)
	add = strings.Trim(add, " ()")
	if add == "" {
		return "the topic of your question"
	}
	return "data about " + strings.ReplaceAll(add, ";", " or")
}

func firstSentence(s string) string {
	if i := strings.IndexAny(s, ".;"); i > 0 {
		return s[:i]
	}
	return s
}

func quoteShort(s string) string {
	if len(s) > 60 {
		s = s[:57] + "..."
	}
	return "\"" + s + "\""
}

// describe handles "what is X?" turns (Figure 1, turn 2).
func (s *System) describe(sess *dialogue.Session, text string) (*Answer, error) {
	ans := &Answer{}
	// Prefer a KG entity; fall back to an offered/known dataset.
	var entity string
	if s.grounder != nil {
		if links := s.grounder.LinkEntities(text); len(links) > 0 {
			entity = links[0].Entity
		}
	}
	var ds *catalog.Dataset
	if offer, ok := sess.ResolveOffer(text); ok && s.cfg.Catalog != nil {
		if d, err := s.cfg.Catalog.Get(offer.ID); err == nil {
			ds = d
		}
	}
	if entity == "" && ds == nil {
		// Fall back to extractive document QA: a verbatim, cited
		// sentence or nothing.
		if s.docs != nil {
			if hit := s.docs.Ask(text); hit != nil {
				g := provenance.NewGraph()
				ansNode := g.AddNode(provenance.Node{Kind: provenance.KindAnswer, Label: "extract for: " + text})
				src := g.AddNode(provenance.Node{Kind: provenance.KindSource, Label: hit.DocID,
					Meta: map[string]string{"uri": hit.Source}})
				if err := g.DerivedFrom(ansNode, src); err != nil {
					return nil, err
				}
				ans.Text = hit.Sentence
				ans.Provenance = g
				ans.AnswerNode = ansNode
				ans.Evidence = uncertainty.Evidence{
					Consistency:       hit.Score,
					GroundingStrength: hit.Score + hit.Margin,
					Verified:          true, // verbatim extraction from a cited document
				}
				return s.finalize(ans), nil
			}
		}
		ans.Evidence = uncertainty.Evidence{Unverifiable: true}
		ans.Text = "I do not have grounded knowledge about that; could you point me to a dataset or concept I know?"
		return s.finalize(ans), nil
	}

	g := provenance.NewGraph()
	var parts []string
	ansNode := g.AddNode(provenance.Node{Kind: provenance.KindAnswer, Label: "description for: " + text})
	if entity != "" && s.cfg.KG != nil {
		parts = append(parts, s.cfg.KG.Describe(entity))
		for _, srcName := range s.cfg.KG.Sources(entity) {
			src := g.AddNode(provenance.Node{Kind: provenance.KindSource, Label: srcName,
				Meta: map[string]string{"uri": uriish(srcName)}})
			if err := g.DerivedFrom(ansNode, src); err != nil {
				return nil, err
			}
		}
	}
	if ds != nil {
		parts = append(parts, catalog.Describe(ds))
		src := g.AddNode(provenance.Node{Kind: provenance.KindSource, Label: ds.Name,
			Meta: map[string]string{"uri": ds.Source, "dataset": ds.ID}})
		if err := g.DerivedFrom(ansNode, src); err != nil {
			return nil, err
		}
	}
	ans.Text = strings.Join(parts, "\n")
	ans.Provenance = g
	ans.AnswerNode = ansNode
	ans.Evidence = uncertainty.Evidence{
		Consistency:       1, // lookups are stable under resampling
		GroundingStrength: s.groundingStrength(text),
		Verified:          true,
	}
	return s.finalize(ans), nil
}

func uriish(s string) string {
	if strings.HasPrefix(s, "http://") || strings.HasPrefix(s, "https://") {
		return s
	}
	return ""
}

// choose handles "I am interested in X" turns (Figure 1, turn 3).
func (s *System) choose(sess *dialogue.Session, text string) (*Answer, error) {
	ans := &Answer{}
	offer, ok := sess.ResolveOffer(text)
	if !ok {
		ans.Clarification = "I did not catch which option you meant; could you name it?"
		ans.Text = ans.Clarification
		ans.Evidence = uncertainty.Evidence{Unverifiable: true}
		ans.Abstained = true
		return ans, nil
	}
	sess.Choose(offer)
	ds, err := s.datasetByID(offer.ID)
	if err != nil {
		return nil, err
	}
	g := provenance.NewGraph()
	ansNode := g.AddNode(provenance.Node{Kind: provenance.KindAnswer, Label: "overview of " + ds.Name})
	src := g.AddNode(provenance.Node{Kind: provenance.KindSource, Label: ds.Name,
		Meta: map[string]string{"uri": ds.Source, "dataset": ds.ID}})
	if err := g.DerivedFrom(ansNode, src); err != nil {
		return nil, err
	}
	var shape string
	if ds.Table != nil {
		// The profile-grounded summary: every number is computed from
		// the data, so the overview cannot hallucinate.
		shape = "\n" + explain.DescribeTable(ds.Table)
	}
	ans.Text = fmt.Sprintf("Sure, here is the overview of the data from %s.%s", ds.Source, shape)
	ans.Provenance = g
	ans.AnswerNode = ansNode
	ans.Evidence = uncertainty.Evidence{Consistency: 1, GroundingStrength: 1, Verified: true}
	return s.finalize(ans), nil
}

func (s *System) datasetByID(id string) (*catalog.Dataset, error) {
	if s.cfg.Catalog == nil {
		return nil, fmt.Errorf("core: no catalog configured")
	}
	return s.cfg.Catalog.Get(id)
}

// analyze handles analytical turns (Figure 1, turn 4): seasonality
// and trend over the focused dataset.
func (s *System) analyze(sess *dialogue.Session, text string) (*Answer, error) {
	ans := &Answer{}
	dsID := sess.Focus
	if dsID == "" {
		if offer, ok := sess.ResolveOffer(text); ok {
			dsID = offer.ID
		}
	}
	if dsID == "" {
		ans.Clarification = "Which dataset should I analyze? Ask for an overview first, then pick one."
		ans.Text = ans.Clarification
		ans.Abstained = true
		ans.Evidence = uncertainty.Evidence{Unverifiable: true}
		return ans, nil
	}
	ds, err := s.datasetByID(dsID)
	if err != nil {
		return nil, err
	}
	if ds.Table == nil {
		ans.Abstained = true
		ans.Text = fmt.Sprintf("The dataset %s has no loaded data I can analyze.", ds.Name)
		ans.Evidence = uncertainty.Evidence{Unverifiable: true}
		return ans, nil
	}
	col, vals, err := firstNumericColumn(ds)
	if err != nil {
		ans.Abstained = true
		ans.Text = fmt.Sprintf("I could not find a numeric column to analyze in %s.", ds.Name)
		ans.Evidence = uncertainty.Evidence{Unverifiable: true}
		return ans, nil
	}

	maxPeriod := len(vals) / timeseries.MinPointsPerPeriod
	if maxPeriod > 24 {
		maxPeriod = 24
	}
	suff := timeseries.CheckSufficiency(len(vals), 2)
	if !suff.OK || maxPeriod < 2 {
		ans.Abstained = true
		ans.Text = "There is not enough data for a seasonality analysis: " + suff.Explanation
		ans.Evidence = uncertainty.Evidence{Unverifiable: true}
		return ans, nil
	}
	season, err := timeseries.DetectSeasonality(vals, maxPeriod)
	if err != nil {
		return nil, err
	}
	trend, err := timeseries.DetectTrend(vals)
	if err != nil {
		return nil, err
	}

	lower := strings.ToLower(text)
	switch {
	case strings.Contains(lower, "forecast") || strings.Contains(lower, "predict"):
		return s.analyzeForecast(ds, col, vals, season)
	case strings.Contains(lower, "anomal") || strings.Contains(lower, "outlier"):
		return s.analyzeAnomalies(ds, col, vals, season)
	}

	code := analysisSnippet(col, ds.Table.Name, season.Period)
	label := "no significant seasonality"
	if season.Period > 0 {
		label = fmt.Sprintf("seasonal period %d (confidence %.0f%%)", season.Period, season.Confidence*100)
	}
	g, ansNode, err := s.analysisProvenance(ds, col, "seasonal decomposition", code, label)
	if err != nil {
		return nil, err
	}

	var sb strings.Builder
	if season.Period > 0 {
		fmt.Fprintf(&sb, "There is seasonality in %s: the best fitted seasonal period is %d (confidence %.0f%%).",
			ds.Name, season.Period, season.Confidence*100)
	} else {
		fmt.Fprintf(&sb, "I found no statistically significant seasonality in %s.", ds.Name)
	}
	fmt.Fprintf(&sb, " The overall trend is %s", trend.Direction)
	if trend.Direction != timeseries.TrendStable {
		fmt.Fprintf(&sb, " (slope %.3f per step, confidence %.0f%%)", trend.Slope, trend.Confidence*100)
	}
	sb.WriteString(".")
	fmt.Fprintf(&sb, " I am reporting on %d points; components were computed only where enough data was present.", len(vals))
	fmt.Fprintf(&sb, "\nSeries: %s", explain.Sparkline(vals, 60))
	if season.Period > 0 {
		if dec, derr := timeseries.Decompose(vals, season.Period); derr == nil {
			fmt.Fprintf(&sb, "\nTrend:  %s", explain.Sparkline(dec.Trend, 60))
			fmt.Fprintf(&sb, "\nSeason: %s", explain.Sparkline(dec.Seasonal[:min(len(dec.Seasonal), 3*season.Period)], 60))
		}
	}
	ans.Text = sb.String()
	ans.Code = code
	ans.Explanation.Caveats = append(ans.Explanation.Caveats,
		"trend estimates at the series edges are excluded (moving-average window)",
		suff.Explanation)
	ans.Provenance = g
	ans.AnswerNode = ansNode
	conf := season.Confidence
	if season.Period == 0 {
		conf = trend.Confidence
	}
	ans.Evidence = uncertainty.Evidence{
		Consistency:       conf,
		GroundingStrength: 1,
		Verified:          true, // deterministic computation over cited data
	}
	return s.finalize(ans), nil
}

// analyzeForecast answers forecast requests with explicit prediction
// intervals (P4: the uncertainty of the prediction is part of the
// answer).
func (s *System) analyzeForecast(ds *catalog.Dataset, col string, vals []float64, season *timeseries.Seasonality) (*Answer, error) {
	ans := &Answer{}
	const horizon = 6
	const level = 0.9
	f, err := timeseries.ForecastSeries(vals, season.Period, horizon, level)
	if err != nil {
		ans.Abstained = true
		ans.Text = "I cannot produce a trustworthy forecast: " + err.Error()
		ans.Evidence = uncertainty.Evidence{Unverifiable: true}
		return ans, nil
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "Forecast for %s (%s, %.0f%% prediction intervals, method %s):",
		ds.Name, col, level*100, f.Method)
	for h := range f.Values {
		fmt.Fprintf(&sb, "\n  t+%d: %.2f  [%.2f, %.2f]", h+1, f.Values[h], f.Lower[h], f.Upper[h])
	}
	code := fmt.Sprintf("timeseries.ForecastSeries(series, %d, %d, %.2f)", season.Period, horizon, level)
	ans.Text = sb.String()
	ans.Code = code
	g, ansNode, err := s.analysisProvenance(ds, col, "forecast", code,
		fmt.Sprintf("%d-step forecast with %.0f%% intervals", horizon, level*100))
	if err != nil {
		return nil, err
	}
	ans.Provenance = g
	ans.AnswerNode = ansNode
	conf := season.Confidence
	if season.Period == 0 {
		conf = 0.7 // naive+drift without seasonal structure
	}
	ans.Evidence = uncertainty.Evidence{Consistency: conf, GroundingStrength: 1, Verified: true}
	return s.finalize(ans), nil
}

// analyzeAnomalies answers outlier requests with the auditable
// z-score criterion.
func (s *System) analyzeAnomalies(ds *catalog.Dataset, col string, vals []float64, season *timeseries.Seasonality) (*Answer, error) {
	ans := &Answer{}
	const threshold = 3.0
	anomalies, err := timeseries.DetectAnomalies(vals, season.Period, threshold)
	if err != nil {
		ans.Abstained = true
		ans.Text = "I cannot run a reliable anomaly analysis: " + err.Error()
		ans.Evidence = uncertainty.Evidence{Unverifiable: true}
		return ans, nil
	}
	var sb strings.Builder
	if len(anomalies) == 0 {
		fmt.Fprintf(&sb, "No anomalies in %s (%s): every residual stays within %.0f standard deviations.",
			ds.Name, col, threshold)
	} else {
		fmt.Fprintf(&sb, "Found %d anomalous point(s) in %s (%s), residuals beyond %.0fσ:", len(anomalies), ds.Name, col, threshold)
		for _, a := range anomalies {
			fmt.Fprintf(&sb, "\n  index %d: value %.2f (z = %+.1f)", a.Index, a.Value, a.Z)
		}
	}
	code := fmt.Sprintf("timeseries.DetectAnomalies(series, %d, %.1f)", season.Period, threshold)
	ans.Text = sb.String()
	ans.Code = code
	g, ansNode, err := s.analysisProvenance(ds, col, "anomaly detection", code,
		fmt.Sprintf("%d anomalies at %.0fσ", len(anomalies), threshold))
	if err != nil {
		return nil, err
	}
	ans.Provenance = g
	ans.AnswerNode = ansNode
	ans.Evidence = uncertainty.Evidence{Consistency: 1, GroundingStrength: 1, Verified: true}
	return s.finalize(ans), nil
}

// analysisProvenance builds the source → query → computation → answer
// chain shared by all analysis answers.
func (s *System) analysisProvenance(ds *catalog.Dataset, col, compLabel, code, answerLabel string) (*provenance.Graph, string, error) {
	g := provenance.NewGraph()
	src := g.AddNode(provenance.Node{Kind: provenance.KindSource, Label: ds.Name,
		Meta: map[string]string{"uri": ds.Source, "dataset": ds.ID}})
	q := g.AddNode(provenance.Node{Kind: provenance.KindQuery, Label: "load series",
		Meta: map[string]string{"query": fmt.Sprintf("SELECT %s FROM %s", col, ds.Table.Name)}})
	comp := g.AddNode(provenance.Node{Kind: provenance.KindComputation, Label: compLabel,
		Meta: map[string]string{"code": code}})
	ansNode := g.AddNode(provenance.Node{Kind: provenance.KindAnswer, Label: answerLabel})
	for _, e := range [][2]string{{q, src}, {comp, q}, {ansNode, comp}} {
		if err := g.DerivedFrom(e[0], e[1]); err != nil {
			return nil, "", err
		}
	}
	return g, ansNode, nil
}

func firstNumericColumn(ds *catalog.Dataset) (string, []float64, error) {
	for _, c := range ds.Table.Schema() {
		if c.Kind == storage.KindFloat {
			vals, _, err := ds.Table.FloatColumn(c.Name)
			if err == nil && len(vals) > 0 {
				return c.Name, vals, nil
			}
		}
	}
	return "", nil, fmt.Errorf("core: no numeric column in %s", ds.Table.Name)
}

func analysisSnippet(col, table string, period int) string {
	return fmt.Sprintf(`series := engine.Query("SELECT %s FROM %s")
dec, err := timeseries.Decompose(series, %d)
// dec.Trend, dec.Seasonal, dec.Residual`, col, table, period)
}

// Session-memo keys owned by the core orchestrator.
const (
	memoLastFrame     = "core.lastFrame"     // *nl2sql.Frame
	memoPendingAnswer = "core.pendingAnswer" // *Answer awaiting confirmation
)

// query handles structured-fact turns — including elliptical
// follow-ups ("and in Bern?") — through the verified NL2SQL pipeline.
// Self-contained questions go through the optimizer's singleflight
// answer cache: concurrent sessions asking the same question share
// one pipeline run, and a stampede on a cold key computes once.
func (s *System) query(ctx context.Context, sess *dialogue.Session, text string) (*Answer, error) {
	if s.translator == nil {
		return &Answer{Abstained: true, Text: "No database is connected."}, nil
	}
	// Follow-ups depend on conversation context and must bypass the
	// text-keyed answer cache.
	if _, freshErr := nl2sql.ParseIntent(text); freshErr != nil {
		ans, _, err := s.queryUncached(ctx, sess, text)
		return ans, err
	}
	// A caller served from the cache (or from another caller's flight)
	// skips its own session-memo updates, exactly as cache hits always
	// have. The cache shares one *Answer across callers, so each caller
	// gets a shallow copy — per-session suggestion attachment must not
	// race on the shared value.
	end := obs.From(ctx).Start("core.optimize")
	ans, err := s.cache.Do(ctx, text, func() (*Answer, bool, error) {
		return s.queryUncached(ctx, sess, text)
	})
	end.End()
	if ans == nil || err != nil {
		return nil, err
	}
	cp := *ans
	return &cp, nil
}

// queryUncached runs the full NL2SQL pipeline for one question. The
// second result reports whether the answer may be cached and shared:
// only final committed answers are; clarifications, abstentions, and
// pending ask-and-refine exchanges carry session side effects and are
// recomputed per caller.
func (s *System) queryUncached(ctx context.Context, sess *dialogue.Session, text string) (*Answer, bool, error) {
	var prevFrame *nl2sql.Frame
	if f, ok := sess.Memo[memoLastFrame].(*nl2sql.Frame); ok {
		prevFrame = f
	}
	ans := &Answer{}
	turn := obs.From(ctx)
	end := turn.Start("core.translate")
	tr, frame, err := s.translate(ctx, text, prevFrame)
	end.End()
	if tr != nil {
		turn.Add(obs.Candidates, len(tr.Candidates))
		turn.Add(obs.CandidatesDistinct, tr.Executions)
		turn.Add(obs.RowsScanned, tr.RowsScanned)
	}
	if err != nil {
		if ctx.Err() != nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			// A cancelled request is not an outage: propagate, never
			// degrade and never cache.
			return nil, false, err
		}
		if infrastructureFailure(err) {
			// Retries exhausted or circuit open: walk the degradation
			// ladder. Degraded answers are never cached — the next
			// caller should get the verified pipeline back as soon as
			// it heals.
			deg, derr := s.degrade(ctx, text, err)
			return deg, false, derr
		}
		ans.Clarification = "I could not map that question to the data; try 'how many …', 'what is the average … in …', or 'list the … of …'."
		ans.Text = ans.Clarification
		ans.Abstained = true
		ans.Evidence = uncertainty.Evidence{Unverifiable: true}
		return ans, false, nil
	}
	sess.Memo[memoLastFrame] = frame
	if tr.Abstained {
		ans.Abstained = true
		ans.Text = "I could not produce a query I can verify against the data, so I would rather not guess."
		ans.Code = tr.SQL
		ans.Evidence = uncertainty.Evidence{Unverifiable: true}
		return ans, false, nil
	}
	ans.Code = tr.SQL
	ans.Text = renderResult(tr.Result)

	g := provenance.NewGraph()
	q := g.AddNode(provenance.Node{Kind: provenance.KindQuery, Label: "generated SQL",
		Meta: map[string]string{"query": tr.SQL}})
	ansNode := g.AddNode(provenance.Node{Kind: provenance.KindAnswer, Label: "result of: " + text})
	if err := g.DerivedFrom(ansNode, q); err != nil {
		return nil, false, err
	}
	for _, tbl := range tablesOf(tr) {
		meta := map[string]string{"dataset": tbl}
		if s.cfg.Catalog != nil {
			if ds, err := s.cfg.Catalog.Get(tbl); err == nil {
				meta["uri"] = ds.Source
			}
		}
		src := g.AddNode(provenance.Node{ID: "source:" + tbl, Kind: provenance.KindSource, Label: tbl, Meta: meta})
		if err := g.DerivedFrom(q, src); err != nil {
			return nil, false, err
		}
	}
	ans.Provenance = g
	ans.AnswerNode = ansNode
	verified := tr.Result != nil && !s.cfg.DisableVerification
	end = turn.Start("core.ground")
	grounding := s.groundingStrength(text)
	end.End()
	ans.Evidence = uncertainty.Evidence{
		Consistency:       tr.Confidence,
		GroundingStrength: grounding,
		Verified:          verified,
		Unverifiable:      tr.Result == nil,
	}
	end = turn.Start("core.finalize")
	out := s.finalize(ans)
	end.End()
	// Ask-and-refine (the paper's "ask-and-refine dialogues"): when
	// the evidence fell just short of the threshold but a verifiable
	// candidate exists, show it and ask instead of silently
	// abstaining. A "yes" turn then commits the pending answer.
	if out.Abstained && tr.Result != nil && !tr.Abstained {
		pending := *out
		pending.Abstained = false
		pending.Evidence.Verified = true // user confirmation counts as verification
		pending.Confidence = s.combiner.Combine(pending.Evidence)
		// Explicit user confirmation supersedes the abstention policy.
		if pending.Confidence < s.policy.Threshold {
			pending.Confidence = s.policy.Threshold
		}
		pending.Text = renderResult(tr.Result)
		sess.Memo[memoPendingAnswer] = &pending
		out.Clarification = fmt.Sprintf(
			"I am only %.0f%% confident. My best interpretation is:\n  %s\nShall I run with it? (yes/no)",
			out.Confidence*100, tr.SQL)
		out.Text = out.Clarification
		return out, false, nil
	}
	return out, true, nil
}

// confirm resolves a pending ask-and-refine exchange.
func (s *System) confirm(sess *dialogue.Session, text string) *Answer {
	pending, ok := sess.Memo[memoPendingAnswer].(*Answer)
	delete(sess.Memo, memoPendingAnswer)
	if !ok {
		return &Answer{
			Abstained:     true,
			Clarification: "There is nothing pending to confirm.",
			Text:          "There is nothing pending to confirm.",
		}
	}
	lower := strings.ToLower(strings.TrimSpace(text))
	if strings.HasPrefix(lower, "yes") || strings.HasPrefix(lower, "correct") || strings.HasPrefix(lower, "exactly") {
		return pending
	}
	return &Answer{
		Abstained:     true,
		Clarification: "Understood — could you rephrase the question with the exact column or value you mean?",
		Text:          "Understood — could you rephrase the question with the exact column or value you mean?",
	}
}

// tablesOf extracts the base tables of a translation's provenance.
func tablesOf(tr *nl2sql.Translation) []string { return tr.Tables() }

// unknown handles unclassifiable turns.
func (s *System) unknown(sess *dialogue.Session, text string) *Answer {
	return &Answer{
		Abstained:     true,
		Clarification: "I did not understand; you can ask me to find datasets, describe one, run an analysis, or answer a data question.",
		Text:          "I did not understand; you can ask me to find datasets, describe one, run an analysis, or answer a data question.",
	}
}
