package nl2sql

import (
	"fmt"
	"math/rand"
	"sync"

	"github.com/reliable-cda/cda/internal/nlmodel"
	"github.com/reliable-cda/cda/internal/sqldb"
	"github.com/reliable-cda/cda/internal/storage"
)

// Reranker implements reward-guided candidate selection (the paper's
// "reward-augmented decoding", ARGS-style): among several sampled
// candidates, pick the one maximizing a reward that combines grammar
// validity with fluency under a reference language model of
// well-formed SQL for this schema.
//
// The reference LM is a bigram model trained on template SQL rendered
// from the actual schema, so hallucinated shapes (stray tokens,
// duplicated clauses) score as high-perplexity even when they happen
// to parse.
type Reranker struct {
	lm *nlmodel.NGram

	// Rewards are pure functions of the candidate text and the trained
	// LM, so they memoize safely; the same repaired candidates recur
	// across samples and questions. The memo is bounded — past the cap
	// rewards still compute, they just aren't remembered.
	memoMu sync.Mutex
	memo   map[string]float64
}

// rewardMemoCap bounds the per-reranker reward memo.
const rewardMemoCap = 8192

// NewReranker trains the reference LM from the database schema.
func NewReranker(db *storage.Database) *Reranker {
	lm := nlmodel.NewNGram()
	var corpus [][]string
	for _, t := range db.Tables() {
		name := t.Name
		corpus = append(corpus, tokenizeSQL(fmt.Sprintf("SELECT COUNT(*) FROM %s", name)))
		for _, c := range t.Schema() {
			col := c.Name
			corpus = append(corpus,
				tokenizeSQL(fmt.Sprintf("SELECT %s FROM %s", col, name)),
				tokenizeSQL(fmt.Sprintf("SELECT COUNT(*) FROM %s WHERE %s = 'v'", name, col)),
			)
			switch c.Kind {
			case storage.KindInt, storage.KindFloat:
				for _, agg := range []string{"AVG", "SUM", "MIN", "MAX"} {
					corpus = append(corpus, tokenizeSQL(fmt.Sprintf("SELECT %s(%s) FROM %s", agg, col, name)))
				}
			case storage.KindString:
				corpus = append(corpus,
					tokenizeSQL(fmt.Sprintf("SELECT %s, COUNT(*) FROM %s GROUP BY %s", col, name, col)))
			}
		}
	}
	lm.Train(corpus)
	return &Reranker{lm: lm, memo: make(map[string]float64)}
}

// Reward scores a candidate: parse validity dominates, then fluency
// (negative perplexity). Higher is better.
func (r *Reranker) Reward(sql string) float64 {
	r.memoMu.Lock()
	if s, ok := r.memo[sql]; ok {
		r.memoMu.Unlock()
		return s
	}
	r.memoMu.Unlock()
	const parseBonus = 1e6
	score := 0.0
	if _, err := sqldb.Parse(sql); err == nil {
		score += parseBonus
	}
	score -= r.lm.Perplexity(tokenizeSQL(sql))
	r.memoMu.Lock()
	if r.memo != nil && len(r.memo) < rewardMemoCap {
		r.memo[sql] = score
	}
	r.memoMu.Unlock()
	return score
}

// Best returns the candidate with the highest reward (ties keep the
// earliest, which preserves sampling determinism).
func (r *Reranker) Best(candidates []string) string {
	if len(candidates) == 0 {
		return ""
	}
	best, bestScore := candidates[0], r.Reward(candidates[0])
	for _, c := range candidates[1:] {
		if s := r.Reward(c); s > bestScore {
			best, bestScore = c, s
		}
	}
	return best
}

// emitRerankedToks draws a pool of candidates for the pre-tokenized
// ideal SQL through the noisy channel (+ optional constrained repair)
// and returns the reward-maximizing one. The reference LM comes from
// the artifact cache, so its (deterministic) training happens once per
// database rather than once per Translator.
func (t *Translator) emitRerankedToks(sc *schemaArtifacts, toks []string, rng *rand.Rand, pool int) string {
	if pool < 2 {
		pool = 2
	}
	cands := make([]string, 0, pool)
	for i := 0; i < pool; i++ {
		cands = append(cands, t.emitCandidateToks(sc, toks, rng))
	}
	return sc.rerankerFor(t.DB).Best(cands)
}
