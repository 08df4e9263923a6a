package catalog

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

func fixture() *Catalog {
	c := New()
	c.Add(Dataset{
		ID: "barometer", Name: "Swiss Labour Market Barometer",
		Description: "monthly leading indicator based on a survey of labour market experts from 22 cantons",
		Source:      "https://www.arbeit.swiss/secoalv/en/home/schweizer-arbeitsmarktbarometer.html",
		Tags:        []string{"labour", "employment", "indicator"},
		UpdatedAt:   100, Cadence: 1,
	})
	c.Add(Dataset{
		ID: "emptype", Name: "Employment type distribution",
		Description: "distribution of employment types for employees older than 15",
		Source:      "bfs.admin.ch",
		Tags:        []string{"employment", "demographics"},
		UpdatedAt:   96, Cadence: 12,
	})
	c.Add(Dataset{
		ID: "chocolate", Name: "Chocolate exports",
		Description: "annual chocolate export volumes by destination",
		UpdatedAt:   90, Cadence: 12,
	})
	return c
}

func TestAddGetList(t *testing.T) {
	c := fixture()
	if c.Len() != 3 {
		t.Fatalf("len = %d", c.Len())
	}
	d, err := c.Get("barometer")
	if err != nil || d.Name != "Swiss Labour Market Barometer" {
		t.Errorf("get = %v, %v", d, err)
	}
	if _, err := c.Get("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing get err = %v", err)
	}
	if got := c.List(); len(got) != 3 || got[0].ID != "barometer" {
		t.Errorf("list = %v", got)
	}
	// Replacement keeps count.
	c.Add(Dataset{ID: "chocolate", Name: "Chocolate exports v2", UpdatedAt: 100, Cadence: 12})
	if c.Len() != 3 {
		t.Error("replace duplicated dataset")
	}
	d, _ = c.Get("chocolate")
	if d.Name != "Chocolate exports v2" {
		t.Error("replace did not update")
	}
}

func TestFreshness(t *testing.T) {
	d := &Dataset{UpdatedAt: 100, Cadence: 10}
	if got := Freshness(d, 100); got != 1 {
		t.Errorf("fresh now = %v", got)
	}
	if got := Freshness(d, 90); got != 1 {
		t.Errorf("future update = %v", got)
	}
	got := Freshness(d, 110)
	if math.Abs(got-math.Exp(-1)) > 1e-12 {
		t.Errorf("one-cadence freshness = %v", got)
	}
	static := &Dataset{UpdatedAt: 0, Cadence: 0}
	if Freshness(static, 1000) != 1 {
		t.Error("static dataset must never rot")
	}
}

func TestRotted(t *testing.T) {
	d := &Dataset{UpdatedAt: 0, Cadence: 1}
	if Rotted(d, 1) {
		t.Error("fresh dataset flagged rotted")
	}
	if !Rotted(d, 10) {
		t.Error("ancient dataset not rotted")
	}
}

func TestSearchRelevance(t *testing.T) {
	c := fixture()
	recs := c.Search("labour market barometer", 5, 100)
	if len(recs) == 0 || recs[0].Dataset.ID != "barometer" {
		t.Fatalf("recs = %v", recs)
	}
	if recs[0].Relevance != 1 {
		t.Errorf("top relevance = %v", recs[0].Relevance)
	}
	for _, r := range recs {
		if r.Dataset.ID == "chocolate" {
			t.Error("irrelevant dataset recommended")
		}
	}
	if recs[0].Reason == "" || !strings.Contains(recs[0].Reason, "labour") {
		t.Errorf("reason = %q", recs[0].Reason)
	}
}

func TestSearchFigure1Scenario(t *testing.T) {
	// The Figure 1 first turn: an employment question should surface
	// both the employment-type dataset and the barometer.
	c := fixture()
	recs := c.Search("overview of employment and the labour market", 5, 100)
	ids := map[string]bool{}
	for _, r := range recs {
		ids[r.Dataset.ID] = true
	}
	if !ids["barometer"] || !ids["emptype"] {
		t.Errorf("expected both labour datasets, got %v", ids)
	}
}

func TestSearchExcludesRotted(t *testing.T) {
	c := fixture()
	// At epoch 130 the barometer (cadence 1, updated 100) has rotted.
	recs := c.Search("labour market barometer", 5, 130)
	for _, r := range recs {
		if r.Dataset.ID == "barometer" {
			t.Error("rotted dataset recommended")
		}
	}
}

func TestSearchFreshnessReranks(t *testing.T) {
	c := New()
	c.Add(Dataset{ID: "old", Name: "employment statistics", Description: "employment statistics", UpdatedAt: 95, Cadence: 10})
	c.Add(Dataset{ID: "new", Name: "employment statistics", Description: "employment statistics", UpdatedAt: 100, Cadence: 10})
	recs := c.Search("employment statistics", 2, 100)
	if len(recs) != 2 || recs[0].Dataset.ID != "new" {
		t.Errorf("freshness rerank = %v", recs)
	}
}

func TestSearchNoMatch(t *testing.T) {
	c := fixture()
	if recs := c.Search("quantum chromodynamics", 5, 100); len(recs) != 0 {
		t.Errorf("recs = %v", recs)
	}
}

func TestSearchTopK(t *testing.T) {
	c := fixture()
	recs := c.Search("employment", 1, 100)
	if len(recs) != 1 {
		t.Errorf("k=1 recs = %v", recs)
	}
}

func TestDescribe(t *testing.T) {
	c := fixture()
	d, _ := c.Get("barometer")
	s := Describe(d)
	if !strings.Contains(s, "monthly leading indicator") || !strings.Contains(s, "Source: https://www.arbeit.swiss") {
		t.Errorf("describe = %q", s)
	}
	nosrc := Describe(&Dataset{Name: "x", Description: "y"})
	if strings.Contains(nosrc, "Source:") {
		t.Error("sourceless describe must omit Source line")
	}
}

func TestReasonOutdatedNote(t *testing.T) {
	c := New()
	c.Add(Dataset{ID: "d", Name: "employment", Description: "employment data", UpdatedAt: 0, Cadence: 10})
	recs := c.Search("employment", 1, 20) // freshness e^-2 ≈ 0.135
	if len(recs) != 1 {
		t.Fatalf("recs = %v", recs)
	}
	if !strings.Contains(recs[0].Reason, "outdated") {
		t.Errorf("reason = %q", recs[0].Reason)
	}
}

func TestSearchDenseVocabularyMismatch(t *testing.T) {
	c := New()
	c.Add(Dataset{ID: "emp", Name: "Employment statistics", Description: "employment figures for swiss cantons", UpdatedAt: 10, Cadence: 12})
	c.Add(Dataset{ID: "choc", Name: "Chocolate exports", Description: "chocolate export volumes", UpdatedAt: 10, Cadence: 12})
	// "employees" never appears verbatim; BM25 finds nothing, dense does.
	if recs := c.Search("employees", 2, 10); len(recs) != 0 {
		t.Skipf("BM25 unexpectedly matched: %v", recs)
	}
	recs := c.SearchDense("employees in cantons", 1, 10)
	if len(recs) == 0 || recs[0].Dataset.ID != "emp" {
		t.Errorf("dense recs = %v", recs)
	}
}

func TestSearchHybrid(t *testing.T) {
	c := fixture()
	recs := c.SearchHybrid("labour market barometer", 3, 100)
	if len(recs) == 0 || recs[0].Dataset.ID != "barometer" {
		t.Errorf("hybrid recs = %v", recs)
	}
	// Hybrid must also exclude rotted datasets.
	recs = c.SearchHybrid("labour market barometer", 3, 130)
	for _, r := range recs {
		if r.Dataset.ID == "barometer" {
			t.Error("rotted dataset in hybrid results")
		}
	}
}

// TestAddDuringSearchIsRaceFree checks ensureIndex's snapshot claim
// under the race detector: a rebuild swaps in fresh indexes and never
// mutates the ones another search is still reading, so Add may run
// while every search mode does, each on its own goroutine.
func TestAddDuringSearchIsRaceFree(t *testing.T) {
	c := fixture()
	const adds = 100
	searches := []func(string, int, int) []Recommendation{c.Search, c.SearchDense, c.SearchHybrid}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, search := range searches {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if recs := search("labour market barometer", 3, 100); len(recs) == 0 {
					t.Error("a search during the adds found nothing")
					return
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	for i := 0; i < adds; i++ {
		c.Add(Dataset{
			ID: fmt.Sprintf("extra%03d", i), Name: "Employment extra",
			Description: "employment figures by canton", UpdatedAt: 100, Cadence: 12,
		})
		// Rebuild here, while the other goroutines read the last build.
		searches[i%len(searches)]("employment", 1, 100)
	}
	close(stop)
	wg.Wait()
	if got := len(c.Search("employment extra", adds+3, 100)); got < adds {
		t.Errorf("after the adds, lexical search finds %d datasets; want at least %d", got, adds)
	}
}
