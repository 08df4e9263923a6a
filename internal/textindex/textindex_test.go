package textindex

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"Hello, World!", []string{"hello", "world"}},
		{"Q3 2024 results", []string{"q3", "2024", "results"}},
		{"", nil},
		{"---", nil},
		{"Zürich's labour-market", []string{"zürich", "s", "labour", "market"}},
	}
	for _, c := range cases {
		got := Tokenize(c.in)
		if len(got) != len(c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("Tokenize(%q)[%d] = %q, want %q", c.in, i, got[i], c.want[i])
			}
		}
	}
}

func TestTokenizeContentDropsStopwords(t *testing.T) {
	got := TokenizeContent("the labour market of Switzerland")
	want := []string{"labour", "market", "switzerland"}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token[%d] = %q", i, got[i])
		}
	}
}

func buildIndex() *Index {
	ix := NewIndex()
	ix.Add(Document{ID: "d1", Text: "Swiss labour market barometer monthly survey"})
	ix.Add(Document{ID: "d2", Text: "employment type distribution for employees older than 15"})
	ix.Add(Document{ID: "d3", Text: "chocolate production statistics Switzerland"})
	ix.Add(Document{ID: "d4", Text: "labour force participation and unemployment"})
	return ix
}

func TestSearchRanking(t *testing.T) {
	ix := buildIndex()
	hits := ix.Search("labour market barometer", 10)
	if len(hits) == 0 || hits[0].ID != "d1" {
		t.Fatalf("hits = %v", hits)
	}
	// d4 matches "labour" only and must rank below d1.
	foundD4 := false
	for _, h := range hits {
		if h.ID == "d4" {
			foundD4 = true
			if h.Score >= hits[0].Score {
				t.Error("partial match outranked full match")
			}
		}
	}
	if !foundD4 {
		t.Error("d4 missing from results")
	}
	// d3 shares no terms.
	for _, h := range hits {
		if h.ID == "d3" {
			t.Error("unrelated doc retrieved")
		}
	}
}

func TestSearchTopK(t *testing.T) {
	ix := buildIndex()
	hits := ix.Search("labour", 1)
	if len(hits) != 1 {
		t.Errorf("k=1 hits = %v", hits)
	}
	if got := ix.Search("labour", 0); got != nil {
		t.Errorf("k=0 hits = %v", got)
	}
	if got := ix.Search("", 5); got != nil {
		t.Errorf("empty query hits = %v", got)
	}
	if got := ix.Search("zzzz", 5); len(got) != 0 {
		t.Errorf("no-match hits = %v", got)
	}
}

func TestEmptyIndex(t *testing.T) {
	ix := NewIndex()
	if got := ix.Search("anything", 5); got != nil {
		t.Errorf("empty index hits = %v", got)
	}
	if ix.Len() != 0 {
		t.Error("len != 0")
	}
}

// TestSearchEdgeCases: an empty query, a stopword-only query and
// k<=0 return nil on a populated index.
func TestSearchEdgeCases(t *testing.T) {
	ix := buildIndex()
	if got := ix.Search("", 5); got != nil {
		t.Fatalf("empty query: got %v, want nil", got)
	}
	if got := ix.Search("the a of", 5); got != nil {
		t.Fatalf("stopword query: got %v, want nil", got)
	}
	if got := ix.Search("labour", 0); got != nil {
		t.Fatalf("k=0: got %v, want nil", got)
	}
}

func TestRepeatedTermBoost(t *testing.T) {
	ix := NewIndex()
	ix.Add(Document{ID: "once", Text: "barometer data xylophone"})
	ix.Add(Document{ID: "twice", Text: "barometer barometer data xylophone"})
	hits := ix.Search("barometer", 2)
	if len(hits) != 2 || hits[0].ID != "twice" {
		t.Errorf("tf ranking = %v", hits)
	}
}

// Property: searching for a document's own full text always retrieves
// it (as long as it has at least one content token).
func TestSelfRetrievalProperty(t *testing.T) {
	ix := NewIndex()
	texts := []string{
		"unemployment statistics bern",
		"seasonal trend decomposition",
		"knowledge graph entity linking",
		"vector similarity progressive search",
	}
	for i, txt := range texts {
		ix.Add(Document{ID: fmt.Sprintf("doc%d", i), Text: txt})
	}
	f := func(pick uint8) bool {
		i := int(pick) % len(texts)
		hits := ix.Search(texts[i], len(texts))
		for _, h := range hits {
			if h.ID == fmt.Sprintf("doc%d", i) {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: BM25 scores are positive and finite.
func TestScoreSanityProperty(t *testing.T) {
	ix := buildIndex()
	f := func(q string) bool {
		for _, h := range ix.Search(q, 10) {
			if !(h.Score > 0) || h.Score != h.Score /* NaN */ {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
