package embed

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/reliable-cda/cda/internal/textindex"
)

func TestEmbedDeterministicAndUnitNorm(t *testing.T) {
	a := EmbedText("swiss labour market barometer")
	b := EmbedText("swiss labour market barometer")
	var norm float64
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("embedding not deterministic")
		}
		norm += float64(a[i]) * float64(a[i])
	}
	if math.Abs(norm-1) > 1e-5 {
		t.Errorf("norm² = %v, want 1", norm)
	}
}

func TestEmbedEmptyText(t *testing.T) {
	v := EmbedText("")
	for _, x := range v {
		if x != 0 {
			t.Fatal("empty text must embed to the zero vector")
		}
	}
	if Similarity(v, v) != 0 {
		t.Error("zero-vector similarity must be 0")
	}
}

func TestSimilarityOrdering(t *testing.T) {
	q := EmbedText("labour market statistics")
	near := EmbedText("statistics about the labour market")
	mid := EmbedText("labour force data") // shares one content word
	far := EmbedText("chocolate export volumes")
	sNear, sMid, sFar := Similarity(q, near), Similarity(q, mid), Similarity(q, far)
	if !(sNear > sMid && sMid > sFar) {
		t.Errorf("ordering violated: near=%v mid=%v far=%v", sNear, sMid, sFar)
	}
	if sNear < 0.8 {
		t.Errorf("paraphrase similarity = %v, too low", sNear)
	}
}

func TestSubwordRobustness(t *testing.T) {
	// "employment" and "employees" share no word token but share
	// trigrams; they must be measurably closer than unrelated words.
	a := Similarity(EmbedText("employment"), EmbedText("employees"))
	b := Similarity(EmbedText("employment"), EmbedText("chocolate"))
	if a <= b {
		t.Errorf("morphological similarity %v <= unrelated %v", a, b)
	}
}

func TestDenseIndexSearch(t *testing.T) {
	ix := NewDenseIndex()
	ix.Add(Item{ID: "barometer", Text: "Swiss labour market barometer monthly indicator"})
	ix.Add(Item{ID: "emptype", Text: "employment type distribution for employees"})
	ix.Add(Item{ID: "chocolate", Text: "chocolate export volumes by destination"})
	hits := ix.Search("labour market indicator", 2)
	if len(hits) != 2 || hits[0].ID != "barometer" {
		t.Errorf("hits = %v", hits)
	}
	if got := ix.Search("anything", 0); got != nil {
		t.Error("k=0 must return nil")
	}
	empty := NewDenseIndex()
	if got := empty.Search("q", 3); got != nil {
		t.Error("empty index must return nil")
	}
}

func TestDenseFindsMorphologicalMatchBM25Misses(t *testing.T) {
	// The paper's motivation for dense retrieval: vocabulary mismatch.
	// Query "employees" vs document "employment": BM25 scores zero,
	// the dense index still ranks it above an unrelated document.
	docs := []Item{
		{ID: "emp", Text: "employment distribution switzerland"},
		{ID: "choc", Text: "chocolate exports"},
	}
	lex := textindex.NewIndex()
	dense := NewDenseIndex()
	for _, d := range docs {
		lex.Add(textindex.Document{ID: d.ID, Text: d.Text})
		dense.Add(d)
	}
	q := "employees in switzerland"
	lexHits := lex.Search("employees", 2) // deliberately single mismatched term
	for _, h := range lexHits {
		if h.ID == "emp" {
			t.Skip("BM25 unexpectedly matched; fixture needs adjusting")
		}
	}
	denseHits := dense.Search(q, 1)
	if len(denseHits) == 0 || denseHits[0].ID != "emp" {
		t.Errorf("dense hits = %v", denseHits)
	}
}

func TestHybridFusion(t *testing.T) {
	dense := []Hit{{ID: "a", Score: 0.9}, {ID: "b", Score: 0.5}}
	lexical := []textindex.Hit{{ID: "b", Score: 7.0}, {ID: "c", Score: 2.0}}
	fused := Hybrid(dense, lexical, 3)
	if len(fused) != 3 {
		t.Fatalf("fused = %v", fused)
	}
	// b appears in both lists and must rank first under RRF.
	if fused[0].ID != "b" {
		t.Errorf("fused[0] = %v", fused[0])
	}
	capped := Hybrid(dense, lexical, 1)
	if len(capped) != 1 {
		t.Errorf("capped = %v", capped)
	}
	if got := Hybrid(nil, nil, 5); len(got) != 0 {
		t.Errorf("empty fusion = %v", got)
	}
}

func TestTrigrams(t *testing.T) {
	got := trigrams("ab")
	if len(got) != 2 || got[0] != "^ab" || got[1] != "ab$" {
		t.Errorf("trigrams(ab) = %v", got)
	}
	if got := trigrams(""); got != nil {
		t.Errorf("trigrams('') = %v", got)
	}
}

// Property: similarity is symmetric and bounded by [-1, 1].
func TestSimilarityBoundsProperty(t *testing.T) {
	f := func(a, b string) bool {
		va, vb := EmbedText(a), EmbedText(b)
		s1, s2 := Similarity(va, vb), Similarity(vb, va)
		return math.Abs(s1-s2) < 1e-9 && s1 >= -1.0001 && s1 <= 1.0001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
