// Package metrics implements the evaluation measures the experiments
// report from the paper's Evaluation section: Precision, Recall and F1
// for prediction tasks; MRR for ranking tasks; calibration measures
// (ECE, Brier score, risk–coverage) for probabilistic correctness
// estimates; and bootstrap confidence intervals.
//
// All functions are pure and allocation-light so they can be called
// from benchmarks without perturbing what they measure.
package metrics

import (
	"errors"
)

// ErrEmpty is returned by measures that are undefined on empty input.
var ErrEmpty = errors.New("metrics: empty input")

// Confusion is a binary confusion matrix. Populate it with Observe and
// read the derived measures from its methods.
type Confusion struct {
	TP, FP, TN, FN int
}

// Observe records one (predicted, actual) outcome pair.
func (c *Confusion) Observe(predicted, actual bool) {
	switch {
	case predicted && actual:
		c.TP++
	case predicted && !actual:
		c.FP++
	case !predicted && actual:
		c.FN++
	default:
		c.TN++
	}
}

// Precision returns TP/(TP+FP), or 0 when no positive predictions exist.
func (c *Confusion) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall returns TP/(TP+FN), or 0 when no actual positives exist.
func (c *Confusion) Recall() float64 {
	if c.TP+c.FN == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// F1 returns the harmonic mean of precision and recall.
func (c *Confusion) F1() float64 {
	p, r := c.Precision(), c.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// MRR returns the mean reciprocal rank. Each ranks[i] is the 1-based
// rank of the first relevant item for query i; 0 means no relevant item
// was retrieved and contributes 0.
func MRR(ranks []int) (float64, error) {
	if len(ranks) == 0 {
		return 0, ErrEmpty
	}
	var sum float64
	for _, r := range ranks {
		if r > 0 {
			sum += 1 / float64(r)
		}
	}
	return sum / float64(len(ranks)), nil
}
