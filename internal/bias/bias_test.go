package bias

import (
	"strings"
	"testing"
)

func TestTermPolarity(t *testing.T) {
	lex := DefaultLexicon()
	if lex.TermPolarity("reliable") != 1 || lex.TermPolarity("lazy") != -1 || lex.TermPolarity("table") != 0 {
		t.Error("polarity lookup wrong")
	}
}

// biasedCorpus builds logs in which `group` systematically co-occurs
// with a negative descriptor, against a neutral background.
func biasedCorpus(group, descriptor string, n int) []string {
	var docs []string
	for i := 0; i < n; i++ {
		docs = append(docs, "the "+group+" applicants are "+descriptor+" workers in this market")
		docs = append(docs, "employment statistics show stable trends across cantons and sectors")
		docs = append(docs, "the survey covers monthly indicators of labour demand")
	}
	return docs
}

func TestAssociationsDetectPlantedBias(t *testing.T) {
	a := NewAnalyzer()
	corpus := biasedCorpus("northerners", "lazy", 10)
	assocs := a.Associations(corpus, "northerners")
	if len(assocs) == 0 {
		t.Fatal("no associations found")
	}
	var lazy *Association
	for i := range assocs {
		if assocs[i].Term == "lazy" {
			lazy = &assocs[i]
		}
	}
	if lazy == nil {
		t.Fatalf("planted descriptor not found in %v", assocs)
	}
	if lazy.Z < SignificanceZ {
		t.Errorf("planted bias z = %v, below significance", lazy.Z)
	}
	if lazy.Sentiment != -1 {
		t.Errorf("sentiment = %v", lazy.Sentiment)
	}
	// Background words must not be significantly associated.
	for _, as := range assocs {
		if as.Term == "statistics" && as.Z >= SignificanceZ {
			t.Errorf("background word flagged: %+v", as)
		}
	}
}

func TestAssociationsNoGroupMentions(t *testing.T) {
	a := NewAnalyzer()
	if got := a.Associations([]string{"nothing about the target here"}, "martians"); got != nil {
		t.Errorf("associations = %v", got)
	}
}

func TestFindingsFlagOnlyNegativeSignificant(t *testing.T) {
	a := NewAnalyzer()
	// Positive association must NOT be flagged.
	posCorpus := biasedCorpus("southerners", "skilled", 10)
	if got := a.Findings(posCorpus, []string{"southerners"}); len(got) != 0 {
		t.Errorf("positive association flagged: %v", got)
	}
	negCorpus := biasedCorpus("northerners", "lazy", 10)
	got := a.Findings(negCorpus, []string{"northerners"})
	if len(got) == 0 {
		t.Fatal("planted negative bias not flagged")
	}
	if got[0].Term != "lazy" || !strings.Contains(got[0].Reason, "northerners") {
		t.Errorf("finding = %+v", got[0])
	}
}

func TestFindingsUnbiasedCorpusClean(t *testing.T) {
	a := NewAnalyzer()
	var corpus []string
	for i := 0; i < 20; i++ {
		corpus = append(corpus,
			"the northerners and southerners work in many sectors",
			"cantonal employment varies with the season",
		)
	}
	if got := a.Findings(corpus, []string{"northerners", "southerners"}); len(got) != 0 {
		t.Errorf("unbiased corpus flagged: %v", got)
	}
}

func TestMinCountSuppression(t *testing.T) {
	a := NewAnalyzer()
	a.MinCount = 5
	corpus := biasedCorpus("northerners", "lazy", 2) // only 2 co-occurrences
	if got := a.Findings(corpus, []string{"northerners"}); len(got) != 0 {
		t.Errorf("below-min-count association flagged: %v", got)
	}
}

// Property: associations are antisymmetric-ish — a term concentrated
// near the group term has positive log-odds; the same corpus with the
// descriptor moved to background flips the sign.
func TestLogOddsSignProperty(t *testing.T) {
	a := NewAnalyzer()
	near := biasedCorpus("group", "lazy", 8)
	assocsNear := a.Associations(near, "group")
	for _, as := range assocsNear {
		if as.Term == "lazy" && as.LogOdds <= 0 {
			t.Errorf("near descriptor log-odds = %v", as.LogOdds)
		}
	}
	var far []string
	for i := 0; i < 8; i++ {
		far = append(far, "the group applicants are steady workers")
		far = append(far, "elsewhere the lazy afternoons pass slowly with lazy rivers")
	}
	for _, as := range a.Associations(far, "group") {
		if as.Term == "lazy" && as.LogOdds >= 0 {
			t.Errorf("background descriptor log-odds = %v", as.LogOdds)
		}
	}
}
