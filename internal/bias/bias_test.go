package bias

import (
	"strings"
	"testing"
)

func TestTermPolarity(t *testing.T) {
	if lexicon.TermPolarity("reliable") != 1 || lexicon.TermPolarity("lazy") != -1 || lexicon.TermPolarity("table") != 0 {
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
	corpus := biasedCorpus("northerners", "lazy", 10)
	assocs := Associations(corpus, "northerners")
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
	if got := Associations([]string{"nothing about the target here"}, "martians"); got != nil {
		t.Errorf("associations = %v", got)
	}
}

func TestFindingsFlagOnlyNegativeSignificant(t *testing.T) {
	// Positive association must NOT be flagged.
	posCorpus := biasedCorpus("southerners", "skilled", 10)
	if got := Findings(posCorpus, []string{"southerners"}); len(got) != 0 {
		t.Errorf("positive association flagged: %v", got)
	}
	negCorpus := biasedCorpus("northerners", "lazy", 10)
	got := Findings(negCorpus, []string{"northerners"})
	if len(got) == 0 {
		t.Fatal("planted negative bias not flagged")
	}
	if got[0].Term != "lazy" || !strings.Contains(got[0].Reason, "northerners") {
		t.Errorf("finding = %+v", got[0])
	}
}

func TestFindingsUnbiasedCorpusClean(t *testing.T) {
	var corpus []string
	for i := 0; i < 20; i++ {
		corpus = append(corpus,
			"the northerners and southerners work in many sectors",
			"cantonal employment varies with the season",
		)
	}
	if got := Findings(corpus, []string{"northerners", "southerners"}); len(got) != 0 {
		t.Errorf("unbiased corpus flagged: %v", got)
	}
}

func TestMinCountSuppression(t *testing.T) {
	// minCount is 2: one co-occurrence is dropped, two are kept.
	for n, want := range map[int]bool{1: false, 2: true} {
		found := false
		for _, as := range Associations(biasedCorpus("northerners", "lazy", n), "northerners") {
			found = found || as.Term == "lazy"
		}
		if found != want {
			t.Errorf("%d co-occurrence(s): lazy kept = %v, want %v", n, found, want)
		}
	}
}

// Property: associations are antisymmetric-ish — a term concentrated
// near the group term has positive log-odds; the same corpus with the
// descriptor moved to background flips the sign.
func TestLogOddsSignProperty(t *testing.T) {
	near := biasedCorpus("group", "lazy", 8)
	assocsNear := Associations(near, "group")
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
	for _, as := range Associations(far, "group") {
		if as.Term == "lazy" && as.LogOdds >= 0 {
			t.Errorf("background descriptor log-odds = %v", as.LogOdds)
		}
	}
}
