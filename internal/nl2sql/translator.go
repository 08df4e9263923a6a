package nl2sql

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"github.com/reliable-cda/cda/internal/ground"
	"github.com/reliable-cda/cda/internal/nlmodel"
	"github.com/reliable-cda/cda/internal/resilience"
	"github.com/reliable-cda/cda/internal/sqldb"
	"github.com/reliable-cda/cda/internal/storage"
)

// Options toggles the reliability stages (the E7 ablation axes).
type Options struct {
	UseGrounding    bool
	UseConstrained  bool
	UseVerification bool
	// UseReranking selects each emitted candidate as the
	// reward-maximizing member of a sampled pool (reward-augmented
	// decoding) instead of a single draw.
	UseReranking bool
	// RerankPool is the pool size per emitted candidate (default 4).
	RerankPool int
	// Samples is the number of candidates drawn when verification is
	// on (self-consistency); 1 otherwise.
	Samples int
	// MaxRepairAttempts bounds rejection sampling per candidate.
	MaxRepairAttempts int
}

// DefaultOptions enables the full reliable pipeline.
func DefaultOptions() Options {
	return Options{
		UseGrounding: true, UseConstrained: true, UseVerification: true,
		UseReranking: true, RerankPool: 4,
		Samples: 5, MaxRepairAttempts: 3,
	}
}

// Translation is the outcome of translating one question.
type Translation struct {
	SQL        string
	Result     *sqldb.Result // nil unless executed
	Confidence float64       // agreement fraction under verification
	Abstained  bool
	Candidates []string // every sampled candidate (post-repair)
	Notes      []string // human-readable stage log for explanations
	// Votes holds the sizes of the semantic clusters (distinct result
	// fingerprints) among executed samples, winner first, for
	// entropy-based uncertainty quantification.
	Votes []int
}

// Tables returns the base tables of the chosen SQL (FROM plus JOINs),
// which the core pipeline cites as the answer's sources. It returns
// nil when the SQL does not parse.
func (t *Translation) Tables() []string {
	stmt, err := sqldb.Parse(t.SQL)
	if err != nil {
		return nil
	}
	out := []string{stmt.From}
	for _, j := range stmt.Joins {
		out = append(out, j.Table)
	}
	return out
}

// FaultHook is the chaos-injection seam for the simulated NL model
// (see internal/faults): Inject may fail or delay a generation call
// the way a hosted LLM endpoint does, and CorruptTokens may corrupt a
// candidate's token stream over and above the configured channel
// noise — giving the verification layer realistic garbage to catch.
// Production deployments leave it nil.
type FaultHook interface {
	Inject(op string) error
	CorruptTokens(op string, toks []string) []string
}

// Translator is the NL→SQL component. Configure the channel's
// HallucinationRate to model a weaker or stronger underlying LLM.
type Translator struct {
	DB       *storage.Database
	Engine   *sqldb.Engine
	Grounder *ground.Grounder // used when Options.UseGrounding
	Channel  nlmodel.Channel
	Options  Options
	Seed     int64
	// Faults, when non-nil, injects deterministic chaos faults into
	// NL-model generation.
	Faults FaultHook
}

// NewTranslator wires a translator over a database with the full
// pipeline enabled and a default noisy channel. Its engine records no
// row provenance: candidates are compared by Fingerprint, and an
// answer's provenance is its query's. A caller that reads Result.Prov
// turns Engine.CaptureProvenance on.
func NewTranslator(db *storage.Database, g *ground.Grounder, seed int64) *Translator {
	eng := sqldb.NewEngine(db)
	eng.CaptureProvenance = false
	return &Translator{
		DB:       db,
		Engine:   eng,
		Grounder: g,
		Channel:  nlmodel.Channel{HallucinationRate: 0.08},
		Options:  DefaultOptions(),
		Seed:     seed,
	}
}

// GroundedResolver resolves phrases through the grounding layer,
// falling back to literal resolution when nothing links.
type GroundedResolver struct {
	G  *ground.Grounder
	DB *storage.Database
}

// Table picks the best schema link whose table matches the phrase.
func (r GroundedResolver) Table(phrase string) string {
	for _, l := range r.G.LinkSchema(phrase) {
		if l.Column == "" && !l.IsValue {
			return l.Table
		}
	}
	// A value or column link still reveals the table.
	if links := r.G.LinkSchema(phrase); len(links) > 0 {
		return links[0].Table
	}
	return LiteralResolver{}.Table(phrase)
}

// Column picks the best column link inside the table.
func (r GroundedResolver) Column(table, phrase string) string {
	var fallback string
	for _, l := range r.G.LinkSchema(phrase) {
		if l.Column == "" {
			continue
		}
		if strings.EqualFold(l.Table, table) {
			return l.Column
		}
		if fallback == "" {
			fallback = l.Column
		}
	}
	if fallback != "" {
		return fallback
	}
	return LiteralResolver{}.Column(table, phrase)
}

// Value matches the literal against the column's stored values
// case-insensitively and returns the canonical spelling on a hit.
func (r GroundedResolver) Value(table, column, raw string) string {
	t, err := r.DB.Get(table)
	if err != nil {
		return raw
	}
	vals, err := t.DistinctStrings(column)
	if err != nil {
		return raw
	}
	for _, v := range vals {
		if strings.EqualFold(v, raw) {
			return v
		}
	}
	return raw
}

// Translate runs the configured pipeline on one question.
func (t *Translator) Translate(question string) (*Translation, error) {
	frame, err := ParseIntent(question)
	if err != nil {
		return nil, err
	}
	return t.translateFrame(question, frame)
}

// translateFrame runs the pipeline on an already-extracted frame
// (used directly by follow-up resolution).
func (t *Translator) translateFrame(question string, frame *Frame) (*Translation, error) {
	if t.Faults != nil {
		// One generation call per question: the simulated LLM endpoint
		// can be down (transient error) or slow (latency), independent
		// of the per-token channel noise below.
		if err := t.Faults.Inject("nlmodel.generate"); err != nil {
			return nil, err
		}
	}
	var resolver Resolver = LiteralResolver{}
	tr := &Translation{}
	if t.Options.UseGrounding && t.Grounder != nil {
		resolver = GroundedResolver{G: t.Grounder, DB: t.DB}
		tr.Notes = append(tr.Notes, "grounding: phrases resolved against schema and vocabulary")
	} else {
		tr.Notes = append(tr.Notes, "grounding: OFF (literal identifiers)")
	}
	ideal := frame.Render(resolver)

	samples := 1
	if t.Options.UseVerification {
		samples = t.Options.Samples
		if samples < 1 {
			samples = 1
		}
	}
	rng := rand.New(rand.NewSource(t.Seed ^ hashString(question)))
	// The ideal SQL and the schema are fixed for the whole sampling
	// round: tokenize once instead of re-lexing per candidate attempt
	// (the channel never mutates its input sequence), and resolve the
	// schema artifacts once instead of re-validating the signature per
	// repair.
	idealToks := tokenizeSQL(ideal)
	sc := schemaArtifactsFor(t.DB)

	type executed struct {
		sql  string
		res  *sqldb.Result
		vote int
	}
	byFP := map[string]*executed{}
	var firstCandidate string
	var lastTransient error
	// The engine is deterministic: identical candidate SQL produces an
	// identical result (or error), so repeated candidates within a
	// round — common once constrained repair converges — need only one
	// execution, and one fingerprint. Any configured fault hook disables
	// the dedup, since skipping executions would shift the deterministic
	// injection schedule.
	type queryOut struct {
		res *sqldb.Result
		err error
		fp  string // the result's Fingerprint, under verification
	}
	var queryMemo map[string]queryOut
	if t.Faults == nil && t.Engine.Faults == nil && t.DB.Faults == nil {
		queryMemo = make(map[string]queryOut, samples)
	}
	for s := 0; s < samples; s++ {
		var cand string
		if t.Options.UseReranking {
			cand = t.emitRerankedToks(sc, idealToks, rng, t.Options.RerankPool)
		} else {
			cand = t.emitCandidateToks(sc, idealToks, rng)
		}
		tr.Candidates = append(tr.Candidates, cand)
		if firstCandidate == "" {
			firstCandidate = cand
		}
		out, ok := queryMemo[cand]
		if !ok {
			out.res, out.err = t.Engine.Query(cand)
			if out.err == nil && t.Options.UseVerification {
				out.fp = out.res.Fingerprint()
			}
			if queryMemo != nil {
				queryMemo[cand] = out
			}
		}
		res, err := out.res, out.err
		if err != nil {
			if resilience.IsTransient(err) {
				// Backend failure, not a bad candidate: remember it so a
				// fully-failed round surfaces as an error the resilience
				// layer can retry, rather than a silent abstention.
				lastTransient = err
			}
			if !t.Options.UseVerification {
				// Without verification the system blindly reports its
				// first candidate even when it cannot execute.
				tr.SQL = cand
				tr.Confidence = 0
				tr.Notes = append(tr.Notes, "verification: OFF; candidate failed to execute: "+err.Error())
				return tr, nil
			}
			continue
		}
		if !t.Options.UseVerification {
			tr.SQL = cand
			tr.Result = res
			tr.Confidence = 0
			tr.Notes = append(tr.Notes, "verification: OFF; first executable candidate reported")
			return tr, nil
		}
		if e, ok := byFP[out.fp]; ok {
			e.vote++
		} else {
			byFP[out.fp] = &executed{sql: cand, res: res, vote: 1}
		}
	}

	if len(byFP) == 0 {
		if lastTransient != nil {
			// Every sample died on a transient backend fault; report the
			// failure upward instead of disguising an outage as a
			// semantic abstention.
			return nil, lastTransient
		}
		// Nothing executed: abstain rather than hallucinate (P4).
		tr.Abstained = true
		tr.SQL = firstCandidate
		tr.Notes = append(tr.Notes, "verification: no candidate executed; abstaining")
		return tr, nil
	}
	// Majority fingerprint wins; deterministic tie-break on SQL text.
	var winner *executed
	fps := make([]string, 0, len(byFP))
	for fp := range byFP {
		fps = append(fps, fp)
	}
	sort.Strings(fps)
	for _, fp := range fps {
		e := byFP[fp]
		if winner == nil || e.vote > winner.vote || (e.vote == winner.vote && e.sql < winner.sql) {
			winner = e
		}
	}
	tr.SQL = winner.sql
	tr.Result = winner.res
	tr.Confidence = float64(winner.vote) / float64(samples)
	tr.Votes = append(tr.Votes, winner.vote)
	for _, fp := range fps {
		if byFP[fp] != winner {
			tr.Votes = append(tr.Votes, byFP[fp].vote)
		}
	}
	tr.Notes = append(tr.Notes, fmt.Sprintf("verification: %d/%d samples agree on the result", winner.vote, samples))
	return tr, nil
}

// emitCandidateToks pushes the pre-tokenized ideal SQL through the
// noisy channel and, when constrained decoding is on, repairs it
// against the schema and grammar with bounded rejection sampling. It
// takes tokens and pre-resolved schema artifacts, saving a lex and a
// cache lookup per repair attempt when the caller samples repeatedly
// from the same ideal. Repair and the parse-validity check are
// memoized per corrupted candidate (both are pure functions of schema
// and text); the fault hook runs on every attempt, before the memo key
// is formed, so chaos corruption is never skipped.
func (t *Translator) emitCandidateToks(sc *schemaArtifacts, toks []string, rng *rand.Rand) string {
	attempts := 1
	if t.Options.UseConstrained {
		attempts = t.Options.MaxRepairAttempts
		if attempts < 1 {
			attempts = 1
		}
	}
	var last string
	for a := 0; a < attempts; a++ {
		noisy := t.Channel.Corrupt(rng, toks)
		if t.Faults != nil {
			// A corruption fault degrades this candidate far beyond the
			// channel's baseline noise; constrained repair and
			// execution-verification must absorb it or abstain.
			noisy = t.Faults.CorruptTokens("nlmodel.generate", noisy)
		}
		cand := strings.Join(noisy, " ")
		if !t.Options.UseConstrained {
			return cand
		}
		repaired, parses := sc.repairCandidate(cand)
		last = repaired
		if parses {
			return repaired
		}
	}
	return last
}

// tokenizeSQL splits SQL into the whitespace-delimited tokens the
// noisy channel corrupts. Using the real lexer keeps punctuation
// attached correctly after re-joining.
func tokenizeSQL(sql string) []string {
	toks, err := sqldb.Lex(sql)
	if err != nil {
		return strings.Fields(sql)
	}
	out := make([]string, 0, len(toks))
	for _, tk := range toks {
		if tk.Type == sqldb.TokEOF {
			break
		}
		if tk.Type == sqldb.TokString {
			out = append(out, "'"+strings.ReplaceAll(tk.Text, "'", "''")+"'")
			continue
		}
		out = append(out, tk.Text)
	}
	return out
}

// levenshtein computes edit distance with two rolling rows.
func levenshtein(a, b string) int {
	if a == b {
		return 0
	}
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = minInt(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

func minInt(xs ...int) int {
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// hashString is a small FNV-style string hash for per-question seeds.
func hashString(s string) int64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return int64(h)
}
