package timeseries

import (
	"math"
	"math/rand"
	"testing"
)

func TestForecastSeasonalShape(t *testing.T) {
	xs := seasonalSeries(120, 6, 0.1, 8, 1.0, 2)
	f, err := ForecastSeries(xs, 6, 12, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Values) != 12 || len(f.Lower) != 12 || len(f.Upper) != 12 {
		t.Fatalf("lengths = %d %d %d", len(f.Values), len(f.Lower), len(f.Upper))
	}
	if f.Method != "seasonal-naive+drift" {
		t.Errorf("method = %q", f.Method)
	}
	// The forecast must repeat the seasonal phase: steps 1 and 7 share
	// a phase, separated by one period of drift.
	if math.Abs((f.Values[6]-f.Values[0])-(f.Values[7]-f.Values[1])) > 1e-9 {
		t.Error("seasonal structure not preserved")
	}
	// Intervals contain the point forecast and widen with lead time.
	for h := range f.Values {
		if !(f.Lower[h] < f.Values[h] && f.Values[h] < f.Upper[h]) {
			t.Fatalf("interval broken at h=%d", h)
		}
	}
	w0 := f.Upper[0] - f.Lower[0]
	w11 := f.Upper[11] - f.Lower[11]
	if w11 <= w0 {
		t.Errorf("intervals not widening: %v vs %v", w0, w11)
	}
}

func TestForecastCoverage(t *testing.T) {
	// Empirical coverage of the 90% interval on held-out data should
	// be near nominal across many series.
	rngSeeds := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	total, covered := 0, 0
	for _, seed := range rngSeeds {
		xs := seasonalSeries(132, 6, 0.1, 8, 2.0, seed)
		train, test := xs[:120], xs[120:]
		f, err := ForecastSeries(train, 6, len(test), 0.9)
		if err != nil {
			t.Fatal(err)
		}
		for h, actual := range test {
			total++
			if f.Lower[h] <= actual && actual <= f.Upper[h] {
				covered++
			}
		}
	}
	cov := float64(covered) / float64(total)
	if cov < 0.8 || cov > 1.0 {
		t.Errorf("empirical coverage = %v, want ≈0.9", cov)
	}
}

func TestForecastNonSeasonal(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xs := make([]float64, 50)
	for i := range xs {
		xs[i] = 10 + 0.5*float64(i) + rng.NormFloat64()
	}
	f, err := ForecastSeries(xs, 0, 5, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if f.Method != "naive+drift" {
		t.Errorf("method = %q", f.Method)
	}
	// Drift continues the trend.
	if f.Values[4] <= f.Values[0] {
		t.Errorf("drift lost: %v", f.Values)
	}
}

func TestForecastErrors(t *testing.T) {
	xs := seasonalSeries(120, 6, 0, 5, 1, 1)
	if _, err := ForecastSeries(xs, 6, 0, 0.9); err == nil {
		t.Error("horizon 0 must error")
	}
	if _, err := ForecastSeries(xs, 6, 5, 0); err == nil {
		t.Error("level 0 must error")
	}
	if _, err := ForecastSeries(xs, 6, 5, 1); err == nil {
		t.Error("level 1 must error")
	}
	if _, err := ForecastSeries(xs[:8], 6, 5, 0.9); err != ErrInsufficient {
		t.Errorf("short seasonal: %v", err)
	}
	if _, err := ForecastSeries(xs[:3], 0, 5, 0.9); err != ErrInsufficient {
		t.Errorf("short: %v", err)
	}
}

func TestStdNormalQuantile(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0.5, 0}, {0.975, 1.9599}, {0.95, 1.6449}, {0.025, -1.9599},
	}
	for _, c := range cases {
		if got := stdNormalQuantile(c.p); math.Abs(got-c.want) > 1e-3 {
			t.Errorf("quantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestDetectAnomaliesPlanted(t *testing.T) {
	xs := seasonalSeries(120, 6, 0.1, 8, 0.8, 4)
	xs[60] += 25 // planted spike
	xs[90] -= 25 // planted dip
	got, err := DetectAnomalies(xs, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	found := map[int]bool{}
	for _, a := range got {
		found[a.Index] = true
	}
	if !found[60] || !found[90] {
		t.Errorf("planted anomalies not found: %v", got)
	}
	if len(got) > 6 {
		t.Errorf("too many false positives: %v", got)
	}
	// Signs.
	for _, a := range got {
		if a.Index == 60 && a.Z <= 0 {
			t.Error("spike should have positive z")
		}
		if a.Index == 90 && a.Z >= 0 {
			t.Error("dip should have negative z")
		}
	}
}

func TestDetectAnomaliesClean(t *testing.T) {
	xs := seasonalSeries(120, 6, 0.1, 8, 0.5, 5)
	got, err := DetectAnomalies(xs, 6, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("clean series flagged: %v", got)
	}
}

func TestDetectAnomaliesNonSeasonal(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	xs := make([]float64, 60)
	for i := range xs {
		xs[i] = float64(i) + rng.NormFloat64()
	}
	xs[30] += 15
	got, err := DetectAnomalies(xs, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	var hit bool
	for _, a := range got {
		if a.Index == 30 {
			hit = true
		}
	}
	if !hit {
		t.Errorf("non-seasonal anomaly missed: %v", got)
	}
}

func TestDetectAnomaliesConstant(t *testing.T) {
	xs := make([]float64, 24)
	got, err := DetectAnomalies(xs, 6, 3)
	if err != nil || got != nil {
		t.Errorf("constant series: %v %v", got, err)
	}
	if _, err := DetectAnomalies(xs[:2], 0, 3); err != ErrInsufficient {
		t.Errorf("short: %v", err)
	}
}
