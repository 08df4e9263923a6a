// Package uncertainty implements the paper's P4 (Soundness)
// machinery for quantifying and acting on answer confidence:
//
//   - histogram recalibration, mapping a model's raw (typically
//     overconfident) scores to empirical correctness rates;
//   - evidence combination, merging self-consistency agreement,
//     grounding strength, and execution-verification outcomes into a
//     single confidence;
//   - abstention policies ("the system should be able to refrain from
//     producing answers when unable to produce any answer with
//     sufficient certainty").
package uncertainty

import (
	"errors"
	"math"

	"github.com/reliable-cda/cda/internal/metrics"
)

// ErrUnfitted is returned when calibrating before fitting.
var ErrUnfitted = errors.New("uncertainty: calibrator not fitted")

// Histogram is an equal-width binning calibrator: each bin's output
// is its empirical accuracy, with add-one smoothing toward 0.5 so
// tiny bins do not produce extreme probabilities. Empty bins
// interpolate from the nearest fitted neighbours.
type Histogram struct {
	Bins   int
	fitted bool
	out    []float64
}

// NewHistogram creates a calibrator with the given bin count
// (default 10 when <= 0).
func NewHistogram(bins int) *Histogram {
	if bins <= 0 {
		bins = 10
	}
	return &Histogram{Bins: bins}
}

// Fit learns per-bin accuracies.
func (h *Histogram) Fit(preds []metrics.Prediction) error {
	if len(preds) == 0 {
		return metrics.ErrEmpty
	}
	n := make([]int, h.Bins)
	correct := make([]int, h.Bins)
	for _, p := range preds {
		b := h.bin(p.Confidence)
		n[b]++
		if p.Correct {
			correct[b]++
		}
	}
	h.out = make([]float64, h.Bins)
	filled := make([]bool, h.Bins)
	for b := range h.out {
		if n[b] > 0 {
			// Add-one smoothing toward 1/2.
			h.out[b] = (float64(correct[b]) + 1) / (float64(n[b]) + 2)
			filled[b] = true
		}
	}
	// Interpolate empty bins from nearest filled neighbours.
	for b := range h.out {
		if filled[b] {
			continue
		}
		lo, hi := -1, -1
		for i := b - 1; i >= 0; i-- {
			if filled[i] {
				lo = i
				break
			}
		}
		for i := b + 1; i < h.Bins; i++ {
			if filled[i] {
				hi = i
				break
			}
		}
		switch {
		case lo >= 0 && hi >= 0:
			w := float64(b-lo) / float64(hi-lo)
			h.out[b] = (1-w)*h.out[lo] + w*h.out[hi]
		case lo >= 0:
			h.out[b] = h.out[lo]
		case hi >= 0:
			h.out[b] = h.out[hi]
		default:
			h.out[b] = 0.5
		}
	}
	h.fitted = true
	return nil
}

// Calibrate maps a raw score through the fitted bins.
func (h *Histogram) Calibrate(raw float64) (float64, error) {
	if !h.fitted {
		return 0, ErrUnfitted
	}
	return h.out[h.bin(clamp01(raw))], nil
}

func (h *Histogram) bin(conf float64) int {
	b := int(conf * float64(h.Bins))
	if b >= h.Bins {
		b = h.Bins - 1
	}
	if b < 0 {
		b = 0
	}
	return b
}

// Evidence carries the soundness signals the core pipeline gathers
// for one answer.
type Evidence struct {
	// RawModel is the model's self-reported confidence (often
	// miscalibrated).
	RawModel float64
	// Consistency is the self-consistency agreement fraction from m
	// resamples (0 when not sampled).
	Consistency float64
	// GroundingStrength in [0,1]: how well the question grounded to
	// known entities/schema (0 = nothing grounded).
	GroundingStrength float64
	// Verified reports that the answer passed execution-based
	// verification (e.g. candidate SQL executed and matched across
	// samples); Unverifiable means no verification was possible.
	Verified     bool
	Unverifiable bool
}

// Combiner merges evidence into one confidence. The weights are
// logistic-regression-like log-odds contributions; the defaults were
// chosen so that (a) verification dominates, (b) consistency matters
// more than the raw score, matching the paper's argument that raw LLM
// confidence alone is unreliable.
type Combiner struct {
	Bias        float64
	WRaw        float64
	WConsist    float64
	WGround     float64
	WVerified   float64
	WUnverified float64
}

// DefaultCombiner returns the weighting used by the core system.
func DefaultCombiner() Combiner {
	return Combiner{
		Bias:        -2.2,
		WRaw:        0.6,
		WConsist:    2.6,
		WGround:     1.2,
		WVerified:   2.4,
		WUnverified: -0.8,
	}
}

// Combine produces a confidence in [0,1].
func (c Combiner) Combine(e Evidence) float64 {
	z := c.Bias +
		c.WRaw*e.RawModel +
		c.WConsist*e.Consistency +
		c.WGround*e.GroundingStrength
	if e.Verified {
		z += c.WVerified
	}
	if e.Unverifiable {
		z += c.WUnverified
	}
	return 1 / (1 + math.Exp(-z))
}

// EntropyConfidence converts a distribution of semantically clustered
// samples (counts per distinct answer) into a confidence via
// normalized Shannon entropy: 1 − H(p)/log(m) where m is the total
// sample count. One unanimous cluster gives 1; maximally split
// samples give 0. This is the semantic-uncertainty style of black-box
// UQ the paper cites alongside consistency voting: it rewards
// concentration of the whole distribution, not just the majority.
func EntropyConfidence(counts []int) float64 {
	var m int
	for _, c := range counts {
		m += c
	}
	if m == 0 {
		return 0
	}
	if m == 1 {
		return 1 // a single sample carries no disagreement signal
	}
	var h float64
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := float64(c) / float64(m)
		h -= p * math.Log(p)
	}
	conf := 1 - h/math.Log(float64(m))
	return clamp01(conf)
}

// Policy decides whether to answer or abstain.
type Policy struct {
	// Threshold is the minimum confidence required to answer.
	Threshold float64
}

// ShouldAnswer reports whether the confidence clears the threshold.
func (p Policy) ShouldAnswer(confidence float64) bool {
	return confidence >= p.Threshold
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
