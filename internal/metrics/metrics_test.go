package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s: got %v want %v (tol %v)", msg, got, want, tol)
	}
}

func TestConfusionBasics(t *testing.T) {
	var c Confusion
	c.Observe(true, true)  // TP
	c.Observe(true, false) // FP
	c.Observe(false, true) // FN
	c.Observe(false, false)
	c.Observe(true, true) // TP
	if c.TP != 2 || c.FP != 1 || c.FN != 1 || c.TN != 1 {
		t.Fatalf("confusion = %+v", c)
	}
	approx(t, c.Precision(), 2.0/3.0, 1e-12, "precision")
	approx(t, c.Recall(), 2.0/3.0, 1e-12, "recall")
	approx(t, c.F1(), 2.0/3.0, 1e-12, "f1")
}

func TestConfusionEmpty(t *testing.T) {
	var c Confusion
	if c.Precision() != 0 || c.Recall() != 0 || c.F1() != 0 {
		t.Error("empty confusion must return zeros, not NaN")
	}
}

func TestMRR(t *testing.T) {
	got, err := MRR([]int{1, 2, 0, 4})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, got, (1+0.5+0+0.25)/4, 1e-12, "mrr")
}

func TestECEPerfectCalibration(t *testing.T) {
	// 100 predictions at 0.8 confidence with exactly 80 correct.
	preds := make([]Prediction, 100)
	for i := range preds {
		preds[i] = Prediction{Confidence: 0.8, Correct: i < 80}
	}
	got, err := ECE(preds, 10)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, got, 0, 1e-12, "ece calibrated")
}

func TestECEOverconfident(t *testing.T) {
	preds := make([]Prediction, 100)
	for i := range preds {
		preds[i] = Prediction{Confidence: 0.9, Correct: i < 50}
	}
	got, _ := ECE(preds, 10)
	approx(t, got, 0.4, 1e-12, "ece overconfident")
}

func TestBrier(t *testing.T) {
	preds := []Prediction{
		{Confidence: 1, Correct: true},
		{Confidence: 0, Correct: false},
	}
	got, _ := Brier(preds)
	approx(t, got, 0, 1e-12, "brier perfect")
	preds = []Prediction{{Confidence: 1, Correct: false}}
	got, _ = Brier(preds)
	approx(t, got, 1, 1e-12, "brier worst")
}

func TestRiskCoverage(t *testing.T) {
	preds := []Prediction{
		{Confidence: 0.9, Correct: true},
		{Confidence: 0.7, Correct: true},
		{Confidence: 0.5, Correct: false},
		{Confidence: 0.3, Correct: false},
	}
	curve, err := RiskCoverage(preds)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) != 4 {
		t.Fatalf("curve length = %d, want 4", len(curve))
	}
	if curve[0].Risk != 0 || curve[0].Coverage != 0.25 {
		t.Errorf("first point = %+v", curve[0])
	}
	last := curve[len(curve)-1]
	approx(t, last.Coverage, 1.0, 1e-12, "full coverage")
	approx(t, last.Risk, 0.5, 1e-12, "full-coverage risk")
	// Coverage must be non-decreasing.
	for i := 1; i < len(curve); i++ {
		if curve[i].Coverage < curve[i-1].Coverage {
			t.Errorf("coverage not monotone at %d", i)
		}
	}
}

func TestAURCOrdering(t *testing.T) {
	// Well-ordered confidences (correct ones higher) must have lower
	// AURC than anti-ordered.
	good := []Prediction{
		{0.9, true}, {0.8, true}, {0.2, false}, {0.1, false},
	}
	bad := []Prediction{
		{0.9, false}, {0.8, false}, {0.2, true}, {0.1, true},
	}
	ag, _ := AURC(good)
	ab, _ := AURC(bad)
	if ag >= ab {
		t.Errorf("AURC(good)=%v should be < AURC(bad)=%v", ag, ab)
	}
}

func TestSelectiveAccuracy(t *testing.T) {
	preds := []Prediction{
		{0.9, true}, {0.8, false}, {0.4, false}, {0.2, false},
	}
	cov, acc := SelectiveAccuracy(preds, 0.5)
	approx(t, cov, 0.5, 1e-12, "coverage")
	approx(t, acc, 0.5, 1e-12, "selective accuracy")
	cov, acc = SelectiveAccuracy(preds, 0.99)
	if cov != 0 || acc != 1 {
		t.Errorf("empty selection: cov=%v acc=%v", cov, acc)
	}
}

// Property: ECE is always within [0,1] and Brier within [0,1].
func TestCalibrationBoundsProperty(t *testing.T) {
	f := func(confs []float64, seed int64) bool {
		if len(confs) == 0 {
			return true
		}
		preds := make([]Prediction, len(confs))
		for i, c := range confs {
			c = math.Abs(math.Mod(c, 1))
			preds[i] = Prediction{Confidence: c, Correct: (int64(i)+seed)%3 == 0}
		}
		e, err := ECE(preds, 10)
		if err != nil {
			return false
		}
		b, err := Brier(preds)
		if err != nil {
			return false
		}
		return e >= 0 && e <= 1 && b >= 0 && b <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBootstrapCoversTrueMean(t *testing.T) {
	// Values drawn around mean 0.7; the 95% interval should contain it.
	vals := make([]float64, 200)
	for i := range vals {
		if i%10 < 7 {
			vals[i] = 1
		}
	}
	lo, hi, err := Bootstrap(vals, 2000, 0.95, 1)
	if err != nil {
		t.Fatal(err)
	}
	if lo > 0.7 || hi < 0.7 {
		t.Errorf("interval [%v, %v] misses 0.7", lo, hi)
	}
	if hi-lo <= 0 || hi-lo > 0.2 {
		t.Errorf("interval width = %v", hi-lo)
	}
}

func TestBootstrapWidthShrinksWithN(t *testing.T) {
	mk := func(n int) float64 {
		vals := make([]float64, n)
		for i := range vals {
			if i%2 == 0 {
				vals[i] = 1
			}
		}
		lo, hi, err := Bootstrap(vals, 1000, 0.95, 2)
		if err != nil {
			t.Fatal(err)
		}
		return hi - lo
	}
	if mk(400) >= mk(50) {
		t.Error("interval did not shrink with sample size")
	}
}

func TestBootstrapEdgeCases(t *testing.T) {
	if _, _, err := Bootstrap(nil, 100, 0.95, 1); err != ErrEmpty {
		t.Errorf("empty err = %v", err)
	}
	lo, hi, err := Bootstrap([]float64{3}, 100, 0.95, 1)
	if err != nil || lo != 3 || hi != 3 {
		t.Errorf("single value = [%v, %v], %v", lo, hi, err)
	}
	// Deterministic in seed.
	a1, b1, _ := Bootstrap([]float64{1, 2, 3, 4}, 500, 0.9, 7)
	a2, b2, _ := Bootstrap([]float64{1, 2, 3, 4}, 500, 0.9, 7)
	if a1 != a2 || b1 != b2 {
		t.Error("bootstrap not deterministic")
	}
}
