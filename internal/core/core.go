// Package core implements the paper's primary contribution: the
// reliable Conversational Data Analytics system of Figure 1, wiring
// the conversational exploration layer (internal/dialogue,
// internal/guidance), the computational infrastructure
// (internal/sqldb, internal/vectorindex, internal/textindex,
// internal/timeseries, internal/optimizer), and the NL model layer
// (internal/nlmodel, internal/nl2sql) over the data layer
// (internal/storage, internal/kg, internal/catalog), with grounding
// (internal/ground), provenance (internal/provenance), explanation
// assembly (internal/explain), and uncertainty quantification
// (internal/uncertainty).
//
// Every answer the system emits carries the paper's ⓔ annotations: a
// confidence score, a provenance graph that is checked for
// losslessness before the answer leaves the pipeline, and an
// explanation with code and sources. When the combined evidence does
// not clear the abstention policy the system refrains from answering
// and says why (P4 Soundness).
package core

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"

	"github.com/reliable-cda/cda/internal/catalog"
	"github.com/reliable-cda/cda/internal/dialogue"
	"github.com/reliable-cda/cda/internal/docqa"
	"github.com/reliable-cda/cda/internal/embed"
	"github.com/reliable-cda/cda/internal/explain"
	"github.com/reliable-cda/cda/internal/ground"
	"github.com/reliable-cda/cda/internal/guidance"
	"github.com/reliable-cda/cda/internal/kg"
	"github.com/reliable-cda/cda/internal/nl2sql"
	"github.com/reliable-cda/cda/internal/nlmodel"
	"github.com/reliable-cda/cda/internal/optimizer"
	"github.com/reliable-cda/cda/internal/provenance"
	"github.com/reliable-cda/cda/internal/resilience"
	"github.com/reliable-cda/cda/internal/sqldb"
	"github.com/reliable-cda/cda/internal/storage"
	"github.com/reliable-cda/cda/internal/textindex"
	"github.com/reliable-cda/cda/internal/uncertainty"
	"github.com/reliable-cda/cda/internal/vstore"
)

// Config assembles a System.
type Config struct {
	DB      *storage.Database
	Catalog *catalog.Catalog
	KG      *kg.Store
	Vocab   *ground.Vocabulary
	// Documents feed the extractive document-QA fallback for
	// "what/how is X?" questions the KG and catalog cannot answer.
	Documents []docqa.Document
	// Now is the logical epoch used for dataset freshness.
	Now int
	// Seed drives every stochastic component deterministically.
	Seed int64
	// HallucinationRate configures the simulated LLM channel in the
	// NL2SQL path (0 = perfect model).
	HallucinationRate float64
	// Fabrications is the hallucination token pool.
	Fabrications []string
	// AbstainBelow is the confidence threshold of the abstention
	// policy (default 0.5 when zero).
	AbstainBelow float64
	// DisableGuidance turns off next-step suggestions (E6/E8
	// ablation).
	DisableGuidance bool
	// DisableGrounding turns off the grounding layer (E3/E8
	// ablation).
	DisableGrounding bool
	// DisableProvenance turns off provenance capture (E4/E8
	// ablation).
	DisableProvenance bool
	// DisableVerification turns off NL2SQL execution verification
	// (E8 ablation).
	DisableVerification bool
	// CacheSize bounds the holistic optimizer's answer cache
	// (default 256).
	CacheSize int
	// Clock is the time source for resilience backoff and injected
	// latency (default: the wall clock). Chaos tests pass a
	// resilience.VirtualClock so fault sweeps are instant and
	// deterministic.
	Clock resilience.Clock
	// Versions, when set, gives the system a content-addressed
	// version store (internal/vstore): CommitData publishes immutable
	// snapshots of DB under DataRoot, and every answer is stamped with
	// the data root hash it was computed against — the provenance
	// chain then pins not just which tables, but which VERSION of
	// them.
	Versions *vstore.Store
	// DataRoot names the version root CommitData publishes to
	// (default DefaultDataRoot).
	DataRoot string
	// Resilience tunes retry and circuit-breaker behavior for the
	// backend executor (zero value = library defaults).
	Resilience resilience.Options
	// Faults, when non-nil, is the deterministic chaos injector
	// attached to every backend the system constructs (see
	// internal/faults). Leave nil in production.
	Faults FaultInjector
}

// FaultInjector is the chaos seam the system threads through to its
// backends; *faults.Injector implements it.
type FaultInjector interface {
	Inject(op string) error
	CorruptTokens(op string, toks []string) []string
}

// Answer is the annotated system response (layer ⓔ of Figure 1).
type Answer struct {
	Text       string
	Code       string
	Confidence float64
	Abstained  bool
	// Clarification is non-empty when the system asks back instead of
	// answering (P5 Guidance / P2 Grounding interplay).
	Clarification string
	Suggestions   string
	Explanation   explain.Explanation
	Provenance    *provenance.Graph
	AnswerNode    string
	// Evidence exposes the soundness signals for calibration
	// experiments.
	Evidence uncertainty.Evidence
	// Degraded names the fallback tier that produced this answer when
	// the verified pipeline was unavailable ("vector", "text", or
	// "catalog"); empty for answers from the full pipeline. Degraded
	// answers always report a confidence below any verified answer's
	// and are exempt from the abstention policy — stating a low-
	// confidence pointer with an explicit caveat beats refusing
	// outright during an outage (P4 Soundness under partial failure).
	Degraded string
	// DataRoot is the hash of the data-version commit the answer was
	// computed against (empty on unversioned deployments). Replaying
	// the answer's query against vstore.DatabaseAsOf of this commit
	// reproduces the result byte-for-byte.
	DataRoot string
}

// System is the reliable CDA system.
type System struct {
	cfg        Config
	grounder   *ground.Grounder
	engine     *sqldb.Engine
	translator *nl2sql.Translator
	guide      *guidance.Graph
	combiner   uncertainty.Combiner
	policy     uncertainty.Policy
	rawConf    nlmodel.RawConfidence
	cache      *optimizer.Cache[*Answer]
	docs       *docqa.Store
	exec       *resilience.Executor
	// fallbackDense and fallbackText are the degradation ladder's
	// retrieval tiers: catalog descriptions and document snippets in
	// a dense index (tier 1) and a BM25 index (tier 2), consulted
	// only when the verified pipeline is unavailable.
	fallbackDense *embed.DenseIndex
	fallbackText  *textindex.Index
	// fallbackLabels maps a fallback-index hit ID to the human label
	// rendered in degraded answers.
	fallbackLabels map[string]string
	rngMu          sync.Mutex // guards rng (rand.Rand is not goroutine-safe)
	rng            *rand.Rand
}

// DefaultAbstainBelow is the abstention threshold used when the
// config leaves AbstainBelow zero. The graceful-degradation ladder's
// confidence caps (ladder.go) must stay below it so a degraded answer
// never outranks the abstention line; cdalint's confidence-bounds
// rule checks that relationship.
const DefaultAbstainBelow = 0.5

// New builds a System from the config.
func New(cfg Config) *System {
	if cfg.AbstainBelow == 0 {
		cfg.AbstainBelow = DefaultAbstainBelow
	}
	if cfg.CacheSize == 0 {
		cfg.CacheSize = 256
	}
	if cfg.Vocab == nil {
		cfg.Vocab = ground.NewVocabulary()
	}
	s := &System{
		cfg:      cfg,
		combiner: uncertainty.DefaultCombiner(),
		policy:   uncertainty.Policy{Threshold: cfg.AbstainBelow},
		rawConf:  nlmodel.RawConfidence{Base: 0.9, Noise: 0.04},
		cache:    optimizer.NewCache[*Answer](cfg.CacheSize),
		rng:      rand.New(rand.NewSource(cfg.Seed)),
	}
	if cfg.Clock == nil {
		cfg.Clock = resilience.NewWallClock()
		s.cfg.Clock = cfg.Clock
	}
	s.exec = resilience.NewExecutor(cfg.Resilience, cfg.Clock, cfg.Seed)
	if !cfg.DisableGrounding {
		s.grounder = ground.NewGrounder(cfg.KG, cfg.DB, cfg.Vocab)
	}
	if cfg.DB != nil {
		s.engine = sqldb.NewEngine(cfg.DB)
		s.engine.CaptureProvenance = !cfg.DisableProvenance
		s.translator = nl2sql.NewTranslator(cfg.DB, s.grounder, cfg.Seed)
		s.translator.Channel = nlmodel.Channel{
			HallucinationRate: cfg.HallucinationRate,
			Fabrications:      cfg.Fabrications,
		}
		opts := nl2sql.DefaultOptions()
		opts.UseGrounding = !cfg.DisableGrounding
		opts.UseVerification = !cfg.DisableVerification
		s.translator.Options = opts
	}
	if len(cfg.Documents) > 0 {
		s.docs = docqa.NewStore()
		for _, d := range cfg.Documents {
			s.docs.Add(d)
		}
	}
	s.buildFallbackIndexes()
	if cfg.Faults != nil {
		// Thread the chaos seam through every backend this system
		// constructed. The caller's DB and catalog are shared objects;
		// the harness decides whether to fault those.
		if s.engine != nil {
			s.engine.Faults = cfg.Faults
		}
		if s.translator != nil {
			s.translator.Faults = cfg.Faults
		}
		if s.fallbackDense != nil {
			s.fallbackDense.Faults = cfg.Faults
		}
		if s.fallbackText != nil {
			s.fallbackText.Faults = cfg.Faults
		}
	}
	s.guide = guidance.NewGraph()
	seedGuidance(s.guide)
	return s
}

// buildFallbackIndexes snapshots the catalog descriptions and document
// snippets into the degradation ladder's retrieval tiers. The indexes
// are tiny (one entry per dataset/document) and built eagerly so a
// backend outage cannot also take down the fallback path.
func (s *System) buildFallbackIndexes() {
	s.fallbackDense = embed.NewDenseIndex(nil)
	s.fallbackText = textindex.NewIndex()
	s.fallbackLabels = map[string]string{}
	if s.cfg.Catalog != nil {
		for _, d := range s.cfg.Catalog.List() {
			text := d.Name + " " + d.Description
			s.fallbackDense.Add(embed.Item{ID: d.ID, Text: text})
			s.fallbackText.Add(textindex.Document{ID: d.ID, Text: text})
			s.fallbackLabels[d.ID] = d.Name + " — " + firstSentence(d.Description)
		}
	}
	for _, d := range s.cfg.Documents {
		s.fallbackDense.Add(embed.Item{ID: d.ID, Text: d.Text})
		s.fallbackText.Add(textindex.Document{ID: d.ID, Text: d.Text})
		s.fallbackLabels[d.ID] = "document " + d.ID + " — " + firstSentence(d.Text)
	}
}

// BreakerStates exposes the executor's per-backend circuit-breaker
// states for observability (the chaos harness and the server's
// health endpoint read it).
func (s *System) BreakerStates() map[string]resilience.BreakerState {
	return s.exec.BreakerStates()
}

// seedGuidance pre-trains the interaction graph with the canonical
// successful exploration routes so a fresh system already guides
// sensibly; Record() keeps learning from live sessions.
func seedGuidance(g *guidance.Graph) {
	for i := 0; i < 8; i++ {
		g.Record([]guidance.Action{
			guidance.ActDiscover, guidance.ActClarify, guidance.ActDescribe, guidance.ActAnalyze,
		}, true)
		g.Record([]guidance.Action{
			guidance.ActDiscover, guidance.ActClarify, guidance.ActQuery,
		}, true)
	}
	for i := 0; i < 4; i++ {
		g.Record([]guidance.Action{guidance.ActAnalyze}, false)
		g.Record([]guidance.Action{guidance.ActQuery}, false)
	}
}

// Guide exposes the interaction graph (E6 records outcomes on it).
func (s *System) Guide() *guidance.Graph { return s.guide }

// NewSession starts a conversation.
func (s *System) NewSession() *dialogue.Session { return dialogue.NewSession() }

// CacheHitRate reports the holistic optimizer's answer-cache hit rate.
func (s *System) CacheHitRate() float64 { return s.cache.HitRate() }

// Respond handles one user turn: classify intent, dispatch, annotate.
// It is safe for concurrent use across sessions (callers must still
// serialize turns within one session). The context bounds the turn:
// when ctx is cancelled or its deadline passes, Respond returns
// ctx.Err() promptly and commits nothing to the session transcript —
// a cancelled turn leaves no partial user/system pair behind.
//
// The turn is transactional with respect to the transcript: intent is
// classified without mutating the session, the handler runs, and only
// a turn that produced a final answer is committed as a user/system
// pair. Handlers may still update conversational state (offers,
// focus, memo) before a cancellation lands — that state is advisory
// and safe to keep — but the transcript never gains half a turn.
func (s *System) Respond(ctx context.Context, sess *dialogue.Session, userText string) (*Answer, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	intent := sess.ClassifyTurn(userText)
	var (
		ans *Answer
		err error
	)
	switch intent {
	case dialogue.IntentDiscover:
		ans, err = s.discover(sess, userText)
	case dialogue.IntentDescribe:
		ans, err = s.describe(sess, userText)
	case dialogue.IntentChoose:
		ans, err = s.choose(sess, userText)
	case dialogue.IntentAnalyze:
		ans, err = s.analyze(sess, userText)
	case dialogue.IntentQuery, dialogue.IntentFollowUp:
		ans, err = s.query(ctx, sess, userText)
	case dialogue.IntentConfirm:
		ans = s.confirm(sess, userText)
	default:
		ans = s.unknown(sess, userText)
	}
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.attachSuggestions(sess, intent, userText, ans)
	sess.CommitTurn(userText, intent, ans.Text, ans.Confidence)
	return ans, nil
}

// modelScore draws the simulated raw model confidence from the
// system's seeded stream.
func (s *System) modelScore() float64 {
	s.rngMu.Lock()
	defer s.rngMu.Unlock()
	return s.rawConf.Score(s.rng)
}

func (s *System) attachSuggestions(sess *dialogue.Session, intent dialogue.Intent, userText string, ans *Answer) {
	if s.cfg.DisableGuidance || ans == nil {
		return
	}
	var act guidance.Action
	switch intent {
	case dialogue.IntentDiscover:
		act = guidance.ActDiscover
	case dialogue.IntentDescribe:
		act = guidance.ActDescribe
	case dialogue.IntentChoose:
		act = guidance.ActClarify
	case dialogue.IntentAnalyze:
		act = guidance.ActAnalyze
	case dialogue.IntentQuery, dialogue.IntentFollowUp, dialogue.IntentConfirm:
		act = guidance.ActQuery
	default:
		act = guidance.ActStart
	}
	steps := s.guide.NextSteps(act, 2)
	// Adapt suggestion verbosity to inferred expertise. The current
	// turn is not yet committed to the transcript (CommitTurn runs
	// after suggestions are attached), so it is profiled explicitly.
	var userTurns []string
	for _, t := range sess.Turns {
		if t.Role == dialogue.RoleUser {
			userTurns = append(userTurns, t.Text)
		}
	}
	userTurns = append(userTurns, userText)
	level := guidance.ProfileExpertise(userTurns)
	if level == guidance.Expert && len(steps) > 1 {
		steps = steps[:1]
	}
	ans.Suggestions = guidance.SuggestText(steps)
}

// finalize combines evidence into a calibrated confidence, assembles
// the explanation from provenance, enforces losslessness, and applies
// the abstention policy.
func (s *System) finalize(ans *Answer) *Answer {
	if s.cfg.DisableProvenance {
		// E4/E8 ablation: with provenance capture off the system
		// cannot cite or check sources at all.
		ans.Provenance = nil
		ans.AnswerNode = ""
	}
	ans.Evidence.RawModel = s.modelScore()
	ans.Confidence = s.combiner.Combine(ans.Evidence)
	s.stampDataRoot(ans)
	if ans.Provenance != nil && ans.AnswerNode != "" {
		if ex, err := explain.FromProvenance(ans.Provenance, ans.AnswerNode); err == nil {
			if ans.Explanation.Summary == "" {
				ans.Explanation.Summary = ex.Summary
			}
			ans.Explanation.Sources = ex.Sources
			if ans.Explanation.Code == "" {
				ans.Explanation.Code = ex.Code
			}
		}
		if rep := ans.Provenance.CheckLosslessness(); !rep.Lossless {
			// An answer whose claims cannot be traced to sources is
			// refused outright (DESIGN.md §5).
			ans.Abstained = true
			ans.Text = "I cannot trace this answer back to its sources, so I will not state it as fact."
			ans.Confidence = 0
			return ans
		}
	}
	if s.cfg.DisableVerification && !ans.Abstained {
		// E8 ablation: a generation-only system reports its raw
		// self-confidence and answers regardless of evidence — the
		// paper's "statistical generators that may hallucinate and
		// cannot explicitly verify their answers".
		ans.Confidence = ans.Evidence.RawModel
		return ans
	}
	if !ans.Abstained && !s.policy.ShouldAnswer(ans.Confidence) {
		ans.Abstained = true
		ans.Text = fmt.Sprintf(
			"I am not confident enough to answer (confidence %.0f%%, below my %.0f%% threshold). %s",
			ans.Confidence*100, s.policy.Threshold*100,
			"Could you rephrase or narrow the question?")
	}
	return ans
}

// renderResult formats a query result for chat, capped at 10 rows.
func renderResult(res *sqldb.Result) string {
	if res == nil {
		return ""
	}
	var sb strings.Builder
	sb.WriteString(strings.Join(res.Columns, " | "))
	n := len(res.Rows)
	for i, row := range res.Rows {
		if i == 10 {
			fmt.Fprintf(&sb, "\n… (%d more rows)", n-10)
			break
		}
		parts := make([]string, len(row))
		for j, v := range row {
			parts[j] = v.String()
		}
		sb.WriteString("\n" + strings.Join(parts, " | "))
	}
	return sb.String()
}
