package uncertainty

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/reliable-cda/cda/internal/metrics"
)

// overconfidentPreds simulates an overconfident model: raw scores near
// 0.9 but only accuracy `acc`.
func overconfidentPreds(n int, acc float64, seed int64) []metrics.Prediction {
	rng := rand.New(rand.NewSource(seed))
	out := make([]metrics.Prediction, n)
	for i := range out {
		out[i] = metrics.Prediction{
			Confidence: 0.85 + 0.1*rng.Float64(),
			Correct:    rng.Float64() < acc,
		}
	}
	return out
}

func TestHistogramReducesECE(t *testing.T) {
	train := overconfidentPreds(2000, 0.5, 1)
	test := overconfidentPreds(2000, 0.5, 2)
	h := NewHistogram(10)
	if err := h.Fit(train); err != nil {
		t.Fatal(err)
	}
	raw := make([]metrics.Prediction, len(test))
	cal := make([]metrics.Prediction, len(test))
	for i, p := range test {
		raw[i] = p
		cc, err := h.Calibrate(p.Confidence)
		if err != nil {
			t.Fatal(err)
		}
		cal[i] = metrics.Prediction{Confidence: cc, Correct: p.Correct}
	}
	eceRaw, _ := metrics.ECE(raw, 10)
	eceCal, _ := metrics.ECE(cal, 10)
	if eceCal >= eceRaw {
		t.Errorf("calibration did not help: raw %v cal %v", eceRaw, eceCal)
	}
	if eceCal > 0.1 {
		t.Errorf("calibrated ECE = %v, still large", eceCal)
	}
}

func TestHistogramUnfitted(t *testing.T) {
	h := NewHistogram(10)
	if _, err := h.Calibrate(0.5); !errors.Is(err, ErrUnfitted) {
		t.Errorf("err = %v", err)
	}
	if err := h.Fit(nil); !errors.Is(err, metrics.ErrEmpty) {
		t.Errorf("empty fit err = %v", err)
	}
}

func TestHistogramEmptyBinInterpolation(t *testing.T) {
	// Train only at the extremes; mid-range bins must interpolate.
	var train []metrics.Prediction
	for i := 0; i < 100; i++ {
		train = append(train,
			metrics.Prediction{Confidence: 0.05, Correct: false},
			metrics.Prediction{Confidence: 0.95, Correct: true},
		)
	}
	h := NewHistogram(10)
	if err := h.Fit(train); err != nil {
		t.Fatal(err)
	}
	lo, _ := h.Calibrate(0.05)
	mid, _ := h.Calibrate(0.5)
	hi, _ := h.Calibrate(0.95)
	if !(lo < mid && mid < hi) {
		t.Errorf("interpolation not monotone: %v %v %v", lo, mid, hi)
	}
}

func TestHistogramDefaultBins(t *testing.T) {
	h := NewHistogram(0)
	if h.Bins != 10 {
		t.Errorf("default bins = %d", h.Bins)
	}
}

func TestCombinerOrdering(t *testing.T) {
	c := DefaultCombiner()
	weak := c.Combine(Evidence{RawModel: 0.9, Unverifiable: true})
	grounded := c.Combine(Evidence{RawModel: 0.9, GroundingStrength: 1, Unverifiable: true})
	consistent := c.Combine(Evidence{RawModel: 0.9, GroundingStrength: 1, Consistency: 1, Unverifiable: true})
	verified := c.Combine(Evidence{RawModel: 0.9, GroundingStrength: 1, Consistency: 1, Verified: true})
	if !(weak < grounded && grounded < consistent && consistent < verified) {
		t.Errorf("ordering violated: %v %v %v %v", weak, grounded, consistent, verified)
	}
	if verified < 0.9 {
		t.Errorf("fully supported answer confidence = %v, want high", verified)
	}
	if weak > 0.5 {
		t.Errorf("unsupported answer confidence = %v, want low", weak)
	}
}

func TestCombinerBounds(t *testing.T) {
	c := DefaultCombiner()
	f := func(raw, cons, ground float64, v, u bool) bool {
		e := Evidence{
			RawModel:          math.Abs(math.Mod(raw, 1)),
			Consistency:       math.Abs(math.Mod(cons, 1)),
			GroundingStrength: math.Abs(math.Mod(ground, 1)),
			Verified:          v,
			Unverifiable:      u,
		}
		got := c.Combine(e)
		return got >= 0 && got <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPolicy(t *testing.T) {
	p := Policy{Threshold: 0.7}
	if !p.ShouldAnswer(0.7) || p.ShouldAnswer(0.69) {
		t.Error("threshold comparison wrong")
	}
}

func TestAbstentionImprovesSelectiveAccuracy(t *testing.T) {
	// Confidence correlates with correctness; abstention below a
	// threshold must raise accuracy on the answered subset.
	rng := rand.New(rand.NewSource(9))
	var preds []metrics.Prediction
	for i := 0; i < 2000; i++ {
		conf := rng.Float64()
		preds = append(preds, metrics.Prediction{Confidence: conf, Correct: rng.Float64() < conf})
	}
	_, accAll := metrics.SelectiveAccuracy(preds, 0)
	cov, accSel := metrics.SelectiveAccuracy(preds, 0.5)
	if accSel <= accAll {
		t.Errorf("selective accuracy %v <= overall %v", accSel, accAll)
	}
	if cov == 0 {
		t.Error("abstained on everything")
	}
}

// Property: histogram calibration output is always in [0,1].
func TestHistogramRangeProperty(t *testing.T) {
	train := overconfidentPreds(500, 0.7, 11)
	h := NewHistogram(10)
	if err := h.Fit(train); err != nil {
		t.Fatal(err)
	}
	f := func(raw float64) bool {
		got, err := h.Calibrate(raw)
		return err == nil && got >= 0 && got <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEntropyConfidence(t *testing.T) {
	if got := EntropyConfidence([]int{5}); got != 1 {
		t.Errorf("unanimous = %v", got)
	}
	if got := EntropyConfidence([]int{1, 1, 1, 1, 1}); got != 0 {
		t.Errorf("uniform = %v", got)
	}
	mid := EntropyConfidence([]int{4, 1})
	if mid <= 0 || mid >= 1 {
		t.Errorf("4-1 split = %v", mid)
	}
	if EntropyConfidence([]int{3, 2}) >= mid {
		t.Error("3-2 split should be less confident than 4-1")
	}
	if got := EntropyConfidence(nil); got != 0 {
		t.Errorf("empty = %v", got)
	}
	if got := EntropyConfidence([]int{1}); got != 1 {
		t.Errorf("single sample = %v", got)
	}
	if got := EntropyConfidence([]int{0, 5, 0}); got != 1 {
		t.Errorf("zero clusters ignored = %v", got)
	}
}
