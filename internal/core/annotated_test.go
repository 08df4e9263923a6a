package core

import (
	"testing"

	"github.com/reliable-cda/cda/internal/workload"
)

// TestEveryAnswerIsAnnotated: whatever the deployment lacks, an answer
// either abstains or carries a confidence or a provenance graph (P2–P4),
// and its confidence lies in [0, 1]. The turns cover every handler an
// unconfigured system reaches first: the Figure 1 dialogue, a turn no
// intent matches, a confirmation with nothing pending, and discovery.
func TestEveryAnswerIsAnnotated(t *testing.T) {
	configs := map[string]func(*Config){
		"swiss":      nil,
		"no catalog": func(c *Config) { c.Catalog = nil },
		"no db":      func(c *Config) { c.DB = nil },
		"neither":    func(c *Config) { c.Catalog, c.DB = nil, nil },
	}
	turns := append(workload.Figure1Turns(), "zorp blat quux", "yes", "find datasets about salaries")
	for name, mutate := range configs {
		s := swissSystem(t, mutate)
		sess := s.NewSession()
		for _, text := range turns {
			ans := respond(t, s, sess, text)
			if !ans.Abstained && ans.Confidence <= 0 && ans.Provenance == nil {
				t.Errorf("%s: %q: answer is neither abstained, nor confident, nor sourced: %+v", name, text, ans)
			}
			if ans.Confidence < 0 || ans.Confidence > 1 {
				t.Errorf("%s: %q: confidence %v outside [0, 1]", name, text, ans.Confidence)
			}
		}
	}
}

// TestDegradedCapsBelowAbstention: a degraded answer never outranks the
// abstention line, so each tier's confidence cap lies in
// [0, DefaultAbstainBelow), and the threshold itself is a confidence.
func TestDegradedCapsBelowAbstention(t *testing.T) {
	if DefaultAbstainBelow > 1 {
		t.Errorf("DefaultAbstainBelow = %v, above 1", DefaultAbstainBelow)
	}
	caps := map[string]float64{
		"vector":  degradedVectorConfidence,
		"text":    degradedTextConfidence,
		"catalog": degradedCatalogConfidence,
	}
	for tier, c := range caps {
		if c < 0 || c >= DefaultAbstainBelow {
			t.Errorf("degraded %s confidence %v outside [0, %v)", tier, c, DefaultAbstainBelow)
		}
	}
}
