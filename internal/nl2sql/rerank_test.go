package nl2sql

import (
	"math/rand"
	"strings"
	"testing"

	"github.com/reliable-cda/cda/internal/nlmodel"
)

func TestRerankerPrefersValidSQL(t *testing.T) {
	db := fixtureDB()
	r := NewReranker(db)
	valid := "SELECT COUNT ( * ) FROM employees"
	broken := "SELECT COUNT ( * FROM FROM employees WHERE"
	if r.Reward(valid) <= r.Reward(broken) {
		t.Errorf("valid %v <= broken %v", r.Reward(valid), r.Reward(broken))
	}
	if got := r.Best([]string{broken, valid}); got != valid {
		t.Errorf("best = %q", got)
	}
}

func TestRerankerFluencyTieBreak(t *testing.T) {
	db := fixtureDB()
	r := NewReranker(db)
	// Both parse; the canonical shape must outscore the weird-but-valid
	// duplicate-alias form.
	canonical := "SELECT AVG ( salary ) FROM employees"
	weird := "SELECT AVG ( salary ) FROM employees employees WHERE name = name"
	if r.Reward(canonical) <= r.Reward(weird) {
		t.Errorf("canonical %v <= weird %v", r.Reward(canonical), r.Reward(weird))
	}
}

func TestRerankerBestEmpty(t *testing.T) {
	r := NewReranker(fixtureDB())
	if got := r.Best(nil); got != "" {
		t.Errorf("best of none = %q", got)
	}
}

func TestRerankingImprovesSingleSampleAccuracy(t *testing.T) {
	db := fixtureDB()
	q := "how many employees where department is Engineering"
	run := func(rerank bool) int {
		ok := 0
		for seed := int64(0); seed < 30; seed++ {
			tr := NewTranslator(db, fixtureGrounder(db), seed)
			tr.Channel = nlmodel.Channel{HallucinationRate: 0.2, Fabrications: []string{"revenue", "zz9"}}
			tr.Options = Options{UseGrounding: true, UseConstrained: true,
				UseReranking: rerank, RerankPool: 4, Samples: 1, MaxRepairAttempts: 3}
			out, err := tr.Translate(q)
			if err != nil {
				t.Fatal(err)
			}
			if out.Result != nil && len(out.Result.Rows) == 1 && out.Result.Rows[0][0].I == 2 {
				ok++
			}
		}
		return ok
	}
	plain := run(false)
	reranked := run(true)
	if reranked < plain {
		t.Errorf("reranking hurt: %d/30 vs %d/30", reranked, plain)
	}
}

func TestEmitRerankedDeterministic(t *testing.T) {
	db := fixtureDB()
	mk := func() string {
		tr := NewTranslator(db, fixtureGrounder(db), 5)
		tr.Channel = nlmodel.Channel{HallucinationRate: 0.3, Fabrications: []string{"zz"}}
		return tr.emitRerankedToks(schemaArtifactsFor(tr.DB), tokenizeSQL("SELECT COUNT ( * ) FROM employees"), rand.New(rand.NewSource(9)), 4)
	}
	if mk() != mk() {
		t.Error("reranked emission not deterministic")
	}
}

func TestRenderTokens(t *testing.T) {
	if got := strings.Join(tokenizeSQL("SELECT  a FROM t"), " "); !strings.Contains(got, "SELECT a FROM t") {
		t.Errorf("rendered tokens = %q", got)
	}
}
