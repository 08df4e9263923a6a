// Package nlmodel implements the deterministic simulated language
// model that substitutes for a hosted LLM (see DESIGN.md §2). It
// provides the failure modes and control surfaces the paper's
// architecture is designed around, without any network dependency:
//
//   - an n-gram language model (bigram, add-one smoothed) that scores
//     the fluency of token sequences (the reranker's reference model);
//   - a noisy channel that corrupts structured token sequences with a
//     configurable hallucination rate — the stand-in for an LLM
//     emitting plausible-but-wrong identifiers;
//   - a raw confidence generator that is deliberately miscalibrated
//     (overconfident), reproducing the paper's observation that "when
//     relying solely on an LLM, confidence scores may not accurately
//     reflect the true probability of correctness".
//
// All randomness flows from explicit seeds so experiments reproduce
// bit-for-bit.
package nlmodel

import (
	"math"
	"math/rand"
	"sort"
)

// EOS terminates every training and scored sequence.
const EOS = "</s>"

// BOS starts generated sequences.
const BOS = "<s>"

// NGram is a bigram language model with add-one smoothing.
type NGram struct {
	counts map[string]map[string]int
	totals map[string]int
	vocab  []string
	vset   map[string]struct{}
}

// NewNGram creates an untrained model.
func NewNGram() *NGram {
	return &NGram{
		counts: make(map[string]map[string]int),
		totals: make(map[string]int),
		vset:   make(map[string]struct{}),
	}
}

// Train adds token sequences to the model. Sequences are implicitly
// wrapped in BOS/EOS.
func (m *NGram) Train(corpus [][]string) {
	for _, seq := range corpus {
		prev := BOS
		for _, tok := range seq {
			m.observe(prev, tok)
			prev = tok
		}
		m.observe(prev, EOS)
	}
}

func (m *NGram) observe(prev, tok string) {
	if m.counts[prev] == nil {
		m.counts[prev] = make(map[string]int)
	}
	m.counts[prev][tok]++
	m.totals[prev]++
	for _, t := range []string{prev, tok} {
		if t == BOS {
			continue
		}
		if _, ok := m.vset[t]; !ok {
			m.vset[t] = struct{}{}
			m.vocab = append(m.vocab, t)
		}
	}
	sort.Strings(m.vocab)
}

// Prob returns the add-one-smoothed probability P(tok | prev).
func (m *NGram) Prob(prev, tok string) float64 {
	v := len(m.vocab)
	if v == 0 {
		return 0
	}
	return (float64(m.counts[prev][tok]) + 1) / (float64(m.totals[prev]) + float64(v))
}

// Perplexity computes the per-token perplexity of a sequence under
// the model (lower = more fluent). Infinite for an untrained model.
func (m *NGram) Perplexity(seq []string) float64 {
	if len(m.vocab) == 0 {
		return math.Inf(1)
	}
	var logSum float64
	n := 0
	prev := BOS
	for _, tok := range append(append([]string{}, seq...), EOS) {
		logSum += math.Log(m.Prob(prev, tok))
		n++
		prev = tok
	}
	return math.Exp(-logSum / float64(n))
}

// Channel is the noisy structured-output channel: it corrupts token
// sequences the way an unconstrained LLM corrupts SQL — substituting
// plausible identifiers, dropping tokens, or injecting fabricated
// ones.
type Channel struct {
	// HallucinationRate is the per-token probability of corruption.
	HallucinationRate float64
	// Fabrications is the pool of plausible-but-wrong tokens the
	// channel may substitute (e.g. column names from other schemas).
	Fabrications []string
}

// Corrupt returns a (possibly) corrupted copy of the sequence using
// the provided seeded RNG. Corruption modes per corrupted token:
// substitution from Fabrications (60%), token drop (20%), duplication
// (20%). The input is never mutated.
func (c Channel) Corrupt(rng *rand.Rand, seq []string) []string {
	out := make([]string, 0, len(seq))
	for _, tok := range seq {
		if rng.Float64() >= c.HallucinationRate {
			out = append(out, tok)
			continue
		}
		switch mode := rng.Float64(); {
		case mode < 0.6 && len(c.Fabrications) > 0:
			out = append(out, c.Fabrications[rng.Intn(len(c.Fabrications))])
		case mode < 0.8:
			// drop
		default:
			out = append(out, tok, tok)
		}
	}
	return out
}

// RawConfidence models the miscalibrated self-reported confidence of
// a generation-only system: a high base value with small noise,
// independent of actual correctness.
type RawConfidence struct {
	Base  float64 // e.g. 0.9
	Noise float64 // e.g. 0.05
}

// Score draws one confidence value in [0,1].
func (r RawConfidence) Score(rng *rand.Rand) float64 {
	v := r.Base + r.Noise*rng.NormFloat64()
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
