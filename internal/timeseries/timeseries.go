// Package timeseries implements the analytical routines the Figure 1
// dialogue exercises: trend extraction, seasonality detection with a
// confidence score, classical additive decomposition, and
// data-sufficiency checks ("I am only reporting data for the last 10
// years since there is no sufficient data earlier").
//
// Every analysis returns both a result and an explicit quantification
// of how trustworthy it is, in line with P4 (Soundness): seasonality
// detection reports the seasonal-strength confidence, trend detection
// reports a t-statistic-based confidence, and callers are expected to
// abstain when confidence is low.
package timeseries

import (
	"errors"
	"fmt"
	"math"
)

// ErrInsufficient is returned when a series is too short for the
// requested analysis.
var ErrInsufficient = errors.New("timeseries: insufficient data")

// MinPointsPerPeriod is the minimum number of full cycles required
// before a seasonality estimate is considered meaningful.
const MinPointsPerPeriod = 2

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance (0 for fewer than 2 points).
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// MovingAverage returns the centered moving average with the given
// window. For even windows it uses the standard 2×MA convention.
// Edges where the window does not fit are NaN.
func MovingAverage(xs []float64, window int) ([]float64, error) {
	if window < 2 {
		return nil, fmt.Errorf("timeseries: window must be >= 2, got %d", window)
	}
	if len(xs) < window+1 {
		return nil, ErrInsufficient
	}
	n := len(xs)
	out := make([]float64, n)
	for i := range out {
		out[i] = math.NaN()
	}
	if window%2 == 1 {
		half := window / 2
		for i := half; i < n-half; i++ {
			var s float64
			for j := i - half; j <= i+half; j++ {
				s += xs[j]
			}
			out[i] = s / float64(window)
		}
		return out, nil
	}
	// Even window: average of two adjacent window means (2×MA).
	half := window / 2
	for i := half; i < n-half; i++ {
		var s float64
		// Weighted: endpoints half weight.
		s += xs[i-half] / 2
		s += xs[i+half] / 2
		for j := i - half + 1; j <= i+half-1; j++ {
			s += xs[j]
		}
		out[i] = s / float64(window)
	}
	return out, nil
}

// ACF returns autocorrelations for lags 1..maxLag.
func ACF(xs []float64, maxLag int) ([]float64, error) {
	n := len(xs)
	if maxLag < 1 {
		return nil, fmt.Errorf("timeseries: maxLag must be >= 1")
	}
	if n < maxLag+2 {
		return nil, ErrInsufficient
	}
	m := Mean(xs)
	var denom float64
	for _, x := range xs {
		d := x - m
		denom += d * d
	}
	out := make([]float64, maxLag)
	if denom == 0 {
		return out, nil // constant series: zero autocorrelation by convention
	}
	for lag := 1; lag <= maxLag; lag++ {
		var num float64
		for i := lag; i < n; i++ {
			num += (xs[i] - m) * (xs[i-lag] - m)
		}
		out[lag-1] = num / denom
	}
	return out, nil
}

// Seasonality is the outcome of seasonal-period detection.
type Seasonality struct {
	// Period is the detected seasonal period in samples (0 when no
	// significant seasonality was found).
	Period int
	// Confidence in [0,1] is the seasonal strength of the decomposition
	// at the detected period: 1 - Var(residual)/Var(detrended),
	// clipped at 0 (Hyndman's F_s). It is the number the Figure 1
	// dialogue reports ("confidence 90%").
	Confidence float64
	// ACFPeak is the autocorrelation at the detected period.
	ACFPeak float64
	// Significant reports whether the ACF peak clears the Bartlett
	// 95% significance band ±1.96/√n.
	Significant bool
}

// DetectSeasonality searches periods 2..maxPeriod for the strongest
// significant ACF peak and scores it with seasonal strength. It
// requires at least MinPointsPerPeriod full cycles of the candidate
// period within the series.
func DetectSeasonality(xs []float64, maxPeriod int) (*Seasonality, error) {
	n := len(xs)
	if maxPeriod < 2 {
		return nil, fmt.Errorf("timeseries: maxPeriod must be >= 2")
	}
	if n < 2*maxPeriod || n < 8 {
		return nil, ErrInsufficient
	}
	// Work on the detrended series so a strong trend does not mask or
	// fake periodicity.
	detrended := detrendLinear(xs)
	acf, err := ACF(detrended, maxPeriod)
	if err != nil {
		return nil, err
	}
	band := 1.96 / math.Sqrt(float64(n))
	type candidate struct {
		period   int
		strength float64
		acf      float64
	}
	var cands []candidate
	for p := 2; p <= maxPeriod; p++ {
		if n/p < MinPointsPerPeriod {
			break
		}
		r := acf[p-1]
		// Require a local ACF peak to skip lags that merely ride a
		// neighbour's correlation.
		if p >= 3 && (r <= acf[p-2] || (p <= maxPeriod-1 && r <= acf[p])) {
			continue
		}
		if r <= band {
			continue
		}
		strength, derr := seasonalStrength(xs, p)
		if derr != nil {
			continue
		}
		cands = append(cands, candidate{period: p, strength: strength, acf: r})
	}
	if len(cands) == 0 {
		return &Seasonality{}, nil
	}
	// Multiples of the true period score as well as the fundamental
	// (a period-24 decomposition reproduces a period-6 pattern four
	// times over), so among candidates whose strength is within a
	// small tolerance of the best we prefer the SMALLEST period.
	best := cands[0]
	for _, c := range cands[1:] {
		if c.strength > best.strength {
			best = c
		}
	}
	const tolerance = 0.03
	chosen := best
	for _, c := range cands {
		if c.strength >= best.strength-tolerance && c.period < chosen.period {
			chosen = c
		}
	}
	return &Seasonality{
		Period:      chosen.period,
		Confidence:  chosen.strength,
		ACFPeak:     chosen.acf,
		Significant: true,
	}, nil
}

// detrendLinear removes the OLS line from the series.
func detrendLinear(xs []float64) []float64 {
	slope, intercept := olsLine(xs)
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x - (intercept + slope*float64(i))
	}
	return out
}

func olsLine(xs []float64) (slope, intercept float64) {
	n := float64(len(xs))
	if n < 2 {
		return 0, Mean(xs)
	}
	var sumX, sumY, sumXY, sumXX float64
	for i, y := range xs {
		x := float64(i)
		sumX += x
		sumY += y
		sumXY += x * y
		sumXX += x * x
	}
	denom := n*sumXX - sumX*sumX
	if denom == 0 {
		return 0, Mean(xs)
	}
	slope = (n*sumXY - sumX*sumY) / denom
	intercept = (sumY - slope*sumX) / n
	return slope, intercept
}

// seasonalStrength decomposes at period p and returns
// max(0, 1 - Var(remainder)/Var(detrended)).
func seasonalStrength(xs []float64, period int) (float64, error) {
	dec, err := Decompose(xs, period)
	if err != nil {
		return 0, err
	}
	var detr, rem []float64
	for i := range xs {
		if math.IsNaN(dec.Trend[i]) {
			continue
		}
		detr = append(detr, xs[i]-dec.Trend[i])
		rem = append(rem, dec.Residual[i])
	}
	vd := Variance(detr)
	if vd == 0 {
		return 0, nil
	}
	s := 1 - Variance(rem)/vd
	if s < 0 {
		s = 0
	}
	if s > 1 {
		s = 1
	}
	return s, nil
}

// Decomposition holds the classical additive components; Trend is NaN
// at the edges the moving average cannot cover.
type Decomposition struct {
	Period   int
	Trend    []float64
	Seasonal []float64
	Residual []float64
}

// Decompose performs classical additive decomposition at the given
// period: centered-MA trend, phase-averaged seasonal component
// normalized to zero mean, and the residual remainder.
func Decompose(xs []float64, period int) (*Decomposition, error) {
	if period < 2 {
		return nil, fmt.Errorf("timeseries: period must be >= 2, got %d", period)
	}
	if len(xs) < MinPointsPerPeriod*period {
		return nil, ErrInsufficient
	}
	trend, err := MovingAverage(xs, period)
	if err != nil {
		return nil, err
	}
	n := len(xs)
	// Phase averages of detrended values.
	sums := make([]float64, period)
	counts := make([]int, period)
	for i := 0; i < n; i++ {
		if math.IsNaN(trend[i]) {
			continue
		}
		ph := i % period
		sums[ph] += xs[i] - trend[i]
		counts[ph]++
	}
	seasonalByPhase := make([]float64, period)
	var total float64
	for ph := range seasonalByPhase {
		if counts[ph] > 0 {
			seasonalByPhase[ph] = sums[ph] / float64(counts[ph])
		}
		total += seasonalByPhase[ph]
	}
	// Normalize to zero mean so trend+seasonal+residual is unbiased.
	adj := total / float64(period)
	for ph := range seasonalByPhase {
		seasonalByPhase[ph] -= adj
	}
	dec := &Decomposition{
		Period:   period,
		Trend:    trend,
		Seasonal: make([]float64, n),
		Residual: make([]float64, n),
	}
	for i := 0; i < n; i++ {
		dec.Seasonal[i] = seasonalByPhase[i%period]
		if math.IsNaN(trend[i]) {
			dec.Residual[i] = math.NaN()
		} else {
			dec.Residual[i] = xs[i] - trend[i] - dec.Seasonal[i]
		}
	}
	return dec, nil
}

// TrendDirection classifies the overall trend.
type TrendDirection int

// Trend directions.
const (
	TrendStable TrendDirection = iota
	TrendIncreasing
	TrendDecreasing
)

// String names the direction.
func (d TrendDirection) String() string {
	switch d {
	case TrendIncreasing:
		return "increasing"
	case TrendDecreasing:
		return "decreasing"
	default:
		return "stable"
	}
}

// TrendResult reports the fitted linear trend with a confidence.
type TrendResult struct {
	Slope      float64
	Intercept  float64
	Direction  TrendDirection
	Confidence float64 // 1 - p-value-ish score from the slope t-statistic
}

// DetectTrend fits an OLS line and classifies the direction using the
// slope's t-statistic; |t| < 2 is treated as stable.
func DetectTrend(xs []float64) (*TrendResult, error) {
	n := len(xs)
	if n < 3 {
		return nil, ErrInsufficient
	}
	slope, intercept := olsLine(xs)
	// Standard error of the slope.
	var sse, sxx float64
	mx := float64(n-1) / 2
	for i, y := range xs {
		fit := intercept + slope*float64(i)
		sse += (y - fit) * (y - fit)
		sxx += (float64(i) - mx) * (float64(i) - mx)
	}
	res := &TrendResult{Slope: slope, Intercept: intercept}
	if sse == 0 || sxx == 0 {
		// Perfect fit (or degenerate x): direction from the sign.
		res.Confidence = 1
		switch {
		case slope > 0:
			res.Direction = TrendIncreasing
		case slope < 0:
			res.Direction = TrendDecreasing
		}
		if slope == 0 {
			res.Direction = TrendStable
			res.Confidence = 1
		}
		return res, nil
	}
	se := math.Sqrt(sse / float64(n-2) / sxx)
	tstat := slope / se
	res.Confidence = clamp01(2*stdNormalCDF(math.Abs(tstat)) - 1)
	switch {
	case tstat > 2:
		res.Direction = TrendIncreasing
	case tstat < -2:
		res.Direction = TrendDecreasing
	default:
		res.Direction = TrendStable
	}
	return res, nil
}

func stdNormalCDF(z float64) float64 {
	return 0.5 * (1 + math.Erf(z/math.Sqrt2))
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

// SufficiencyReport explains whether a series supports a seasonal
// analysis at the candidate period, and if not, why — the text the
// Figure 1 system uses to say it restricted its analysis window.
type SufficiencyReport struct {
	OK          bool
	Points      int
	Needed      int
	Explanation string
}

// CheckSufficiency verifies the series has at least MinPointsPerPeriod
// full cycles of the period.
func CheckSufficiency(n, period int) SufficiencyReport {
	needed := MinPointsPerPeriod * period
	if period < 2 {
		return SufficiencyReport{OK: false, Points: n, Needed: 4,
			Explanation: "a seasonal period must span at least 2 samples"}
	}
	if n >= needed {
		return SufficiencyReport{OK: true, Points: n, Needed: needed,
			Explanation: fmt.Sprintf("%d points cover %d+ full cycles of period %d", n, MinPointsPerPeriod, period)}
	}
	return SufficiencyReport{OK: false, Points: n, Needed: needed,
		Explanation: fmt.Sprintf("only %d points available but %d are needed for period %d", n, needed, period)}
}
