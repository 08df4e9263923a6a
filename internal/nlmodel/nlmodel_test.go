package nlmodel

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func trainedModel() *NGram {
	m := NewNGram()
	m.Train([][]string{
		{"the", "labour", "market", "is", "seasonal"},
		{"the", "labour", "market", "barometer", "is", "monthly"},
		{"employment", "is", "seasonal"},
	})
	return m
}

func TestProbSmoothing(t *testing.T) {
	m := trainedModel()
	// "labour" follows "the" twice out of 2 totals; smoothed < 1.
	p := m.Prob("the", "labour")
	if p <= 0.2 || p >= 1 {
		t.Errorf("P(labour|the) = %v", p)
	}
	// Unseen continuation still gets positive mass.
	if m.Prob("the", "seasonal") <= 0 {
		t.Error("unseen continuation must have positive probability")
	}
	// Probabilities over the vocabulary sum to 1.
	var sum float64
	for _, tok := range m.vocab {
		sum += m.Prob("the", tok)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("probability mass = %v", sum)
	}
}

func TestPerplexityOrdersFluency(t *testing.T) {
	m := trainedModel()
	fluent := m.Perplexity([]string{"the", "labour", "market", "is", "seasonal"})
	weird := m.Perplexity([]string{"seasonal", "the", "monthly", "employment"})
	if fluent >= weird {
		t.Errorf("fluent ppl %v >= weird ppl %v", fluent, weird)
	}
	empty := NewNGram()
	if !math.IsInf(empty.Perplexity([]string{"x"}), 1) {
		t.Error("untrained perplexity must be +Inf")
	}
}

func TestChannelZeroRateIsIdentity(t *testing.T) {
	ch := Channel{HallucinationRate: 0, Fabrications: []string{"bogus"}}
	in := []string{"SELECT", "a", "FROM", "t"}
	out := ch.Corrupt(rand.New(rand.NewSource(1)), in)
	if strings.Join(out, " ") != strings.Join(in, " ") {
		t.Errorf("zero-rate corruption changed %v -> %v", in, out)
	}
}

func TestChannelCorruptsAtHighRate(t *testing.T) {
	ch := Channel{HallucinationRate: 1, Fabrications: []string{"bogus"}}
	in := []string{"SELECT", "a", "FROM", "t"}
	rng := rand.New(rand.NewSource(2))
	out := ch.Corrupt(rng, in)
	if strings.Join(out, " ") == strings.Join(in, " ") {
		t.Error("rate-1 corruption left sequence unchanged")
	}
	// Input must not be mutated.
	if in[0] != "SELECT" {
		t.Error("input mutated")
	}
}

func TestChannelRateScaling(t *testing.T) {
	in := make([]string, 200)
	for i := range in {
		in[i] = "tok"
	}
	count := func(rate float64) int {
		ch := Channel{HallucinationRate: rate, Fabrications: []string{"bogus"}}
		out := ch.Corrupt(rand.New(rand.NewSource(3)), in)
		changed := 0
		for _, tok := range out {
			if tok == "bogus" {
				changed++
			}
		}
		return changed
	}
	if !(count(0.4) > count(0.1)) {
		t.Error("corruption count not increasing in rate")
	}
}

func TestRawConfidenceBounds(t *testing.T) {
	rc := RawConfidence{Base: 0.9, Noise: 0.5}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 1000; i++ {
		v := rc.Score(rng)
		if v < 0 || v > 1 {
			t.Fatalf("confidence %v out of range", v)
		}
	}
}

func TestRawConfidenceOverconfident(t *testing.T) {
	rc := RawConfidence{Base: 0.9, Noise: 0.02}
	rng := rand.New(rand.NewSource(5))
	var sum float64
	for i := 0; i < 500; i++ {
		sum += rc.Score(rng)
	}
	if mean := sum / 500; mean < 0.85 {
		t.Errorf("mean confidence %v, want high regardless of accuracy", mean)
	}
}

// Property: Corrupt never panics and output tokens come from input ∪
// fabrications.
func TestCorruptClosedWorldProperty(t *testing.T) {
	f := func(seed int64, rate float64) bool {
		rate = math.Abs(math.Mod(rate, 1))
		ch := Channel{HallucinationRate: rate, Fabrications: []string{"f1", "f2"}}
		in := []string{"a", "b", "c", "d"}
		out := ch.Corrupt(rand.New(rand.NewSource(seed)), in)
		ok := map[string]bool{"a": true, "b": true, "c": true, "d": true, "f1": true, "f2": true}
		for _, tok := range out {
			if !ok[tok] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
