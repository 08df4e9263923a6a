// Package catalog implements dataset discovery for the CDA data
// layer: a registry of datasets with descriptive metadata, BM25
// search over their descriptions, freshness scoring, and the
// data-rotting policy the paper calls for ("the ability to identify
// and discard parts of the data that are outdated or obsolete").
//
// Time is a logical epoch counter (e.g. months since the catalog
// began) so experiments are deterministic.
package catalog

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"github.com/reliable-cda/cda/internal/embed"
	"github.com/reliable-cda/cda/internal/storage"
	"github.com/reliable-cda/cda/internal/textindex"
)

// ErrNotFound is returned for unknown dataset IDs.
var ErrNotFound = errors.New("catalog: dataset not found")

// Dataset is one discoverable data source.
type Dataset struct {
	ID          string
	Name        string
	Description string
	// Source is the citable origin (URI or publisher) used in
	// provenance annotations.
	Source string
	Tags   []string
	// Table holds the actual data when the dataset is relational.
	Table *storage.Table
	// UpdatedAt is the logical epoch of the last refresh.
	UpdatedAt int
	// Cadence is the expected refresh interval in epochs (0 = static
	// reference data that never rots).
	Cadence int
}

// Recommendation is one ranked discovery result with the reason the
// system can show the user (P3 Explainability at the discovery step).
type Recommendation struct {
	Dataset   *Dataset
	Score     float64 // relevance × freshness
	Relevance float64 // BM25-derived, normalized per query
	Freshness float64
	Reason    string
}

// Catalog is a searchable dataset registry. Safe for concurrent use.
type Catalog struct {
	mu    sync.RWMutex
	byID  map[string]*Dataset
	order []string
	index *textindex.Index
	dense *embed.DenseIndex
	stale bool
}

// New creates an empty catalog.
func New() *Catalog {
	return &Catalog{byID: make(map[string]*Dataset)}
}

// Add registers (or replaces) a dataset.
func (c *Catalog) Add(d Dataset) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.byID[d.ID]; !exists {
		c.order = append(c.order, d.ID)
	}
	copied := d
	c.byID[d.ID] = &copied
	c.stale = true
}

// Get returns the dataset with the given ID.
func (c *Catalog) Get(id string) (*Dataset, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	d, ok := c.byID[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	return d, nil
}

// List returns datasets in registration order.
func (c *Catalog) List() []*Dataset {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*Dataset, 0, len(c.order))
	for _, id := range c.order {
		out = append(out, c.byID[id])
	}
	return out
}

// Len returns the number of registered datasets.
func (c *Catalog) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.byID)
}

func (c *Catalog) ensureIndex() (*textindex.Index, *embed.DenseIndex) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.index == nil || c.stale {
		ix := textindex.NewIndex()
		dense := embed.NewDenseIndex()
		for _, id := range c.order {
			d := c.byID[id]
			text := d.Name + " " + d.Description + " " + strings.Join(d.Tags, " ")
			ix.Add(textindex.Document{ID: d.ID, Text: text})
			dense.Add(embed.Item{ID: d.ID, Text: text})
		}
		c.index = ix
		c.dense = dense
		c.stale = false
	}
	// The indexes are rebuilt from scratch under the lock and never
	// mutated after publication — a rebuild swaps in fresh objects, so
	// the returned references are immutable snapshots
	// (TestAddDuringSearchIsRaceFree).
	return c.index, c.dense
}

// Freshness returns the dataset's freshness in [0,1] at the logical
// time `now`: exp(-age/cadence). Static datasets (Cadence 0) are
// always 1.
func Freshness(d *Dataset, now int) float64 {
	if d.Cadence <= 0 {
		return 1
	}
	age := now - d.UpdatedAt
	if age <= 0 {
		return 1
	}
	return math.Exp(-float64(age) / float64(d.Cadence))
}

// RotThreshold is the freshness below which a dataset is considered
// rotted and excluded from recommendations (≈ age > 3 cadences).
const RotThreshold = 0.05

// Rotted reports whether the dataset should be discarded at `now`.
func Rotted(d *Dataset, now int) bool { return Freshness(d, now) < RotThreshold }

// Search ranks datasets against the question by BM25 relevance
// weighted by freshness, excluding rotted datasets. Relevance is
// normalized by the query's best score so Score stays comparable
// across queries.
func (c *Catalog) Search(question string, k int, now int) []Recommendation {
	ix, _ := c.ensureIndex()
	hits := ix.Search(question, c.Len())
	if len(hits) == 0 {
		return nil
	}
	best := hits[0].Score
	scored := make([]scoredID, len(hits))
	for i, h := range hits {
		scored[i] = scoredID{id: h.ID, rel: h.Score / best}
	}
	return c.rank(question, scored, k, now)
}

// SearchDense ranks purely by embedding similarity — the "dense
// representations in a unified space" retrieval mode. It finds
// datasets whose descriptions share no exact term with the question
// (vocabulary mismatch), at the cost of occasionally surfacing
// loosely related items.
func (c *Catalog) SearchDense(question string, k int, now int) []Recommendation {
	_, dense := c.ensureIndex()
	hits := dense.Search(question, c.Len())
	var scored []scoredID
	for _, h := range hits {
		if h.Score <= 0 {
			continue
		}
		scored = append(scored, scoredID{id: h.ID, rel: h.Score})
	}
	return c.rank(question, scored, k, now)
}

// SearchHybrid fuses the lexical and dense rankings by reciprocal
// rank (the multimodal-index discovery mode).
func (c *Catalog) SearchHybrid(question string, k int, now int) []Recommendation {
	ix, dense := c.ensureIndex()
	lexHits := ix.Search(question, c.Len())
	denseHits := dense.Search(question, c.Len())
	kept := denseHits[:0]
	for _, h := range denseHits {
		if h.Score > 0 {
			kept = append(kept, h)
		}
	}
	fused := embed.Hybrid(kept, lexHits, c.Len())
	if len(fused) == 0 {
		return nil
	}
	best := fused[0].Score
	scored := make([]scoredID, len(fused))
	for i, h := range fused {
		scored[i] = scoredID{id: h.ID, rel: h.Score / best}
	}
	return c.rank(question, scored, k, now)
}

type scoredID struct {
	id  string
	rel float64
}

func (c *Catalog) rank(question string, scored []scoredID, k, now int) []Recommendation {
	var recs []Recommendation
	for _, s := range scored {
		d, err := c.Get(s.id)
		if err != nil {
			continue
		}
		if Rotted(d, now) {
			continue
		}
		fresh := Freshness(d, now)
		recs = append(recs, Recommendation{
			Dataset:   d,
			Relevance: s.rel,
			Freshness: fresh,
			Score:     s.rel * fresh,
			Reason:    reason(question, d, s.rel, fresh),
		})
	}
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].Score != recs[j].Score {
			return recs[i].Score > recs[j].Score
		}
		return recs[i].Dataset.ID < recs[j].Dataset.ID
	})
	if len(recs) > k {
		recs = recs[:k]
	}
	return recs
}

func reason(question string, d *Dataset, rel, fresh float64) string {
	qToks := textindex.TokenizeContent(question)
	dToks := map[string]bool{}
	for _, t := range textindex.TokenizeContent(d.Name + " " + d.Description) {
		dToks[t] = true
	}
	var matched []string
	for _, t := range qToks {
		if dToks[t] {
			matched = append(matched, t)
		}
	}
	r := fmt.Sprintf("matched %s", strings.Join(matched, ", "))
	if len(matched) == 0 {
		r = "matched related vocabulary"
	}
	if fresh < 0.5 {
		r += " (note: dataset may be outdated)"
	}
	return r
}

// Describe renders the one-paragraph dataset summary with its source,
// as the Figure 1 system does for the barometer.
func Describe(d *Dataset) string {
	s := fmt.Sprintf("%s: %s", d.Name, d.Description)
	if d.Source != "" {
		s += fmt.Sprintf("\nSource: %s", d.Source)
	}
	return s
}
