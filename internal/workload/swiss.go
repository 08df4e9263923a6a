// Package workload generates the synthetic datasets, schemas,
// question sets, and vector collections every experiment runs on —
// the substitutes for the paper's proprietary data sources (see
// DESIGN.md §2). All generators are seeded and deterministic.
package workload

import (
	"math"
	"math/rand"

	"github.com/reliable-cda/cda/internal/catalog"
	"github.com/reliable-cda/cda/internal/docqa"
	"github.com/reliable-cda/cda/internal/ground"
	"github.com/reliable-cda/cda/internal/kg"
	"github.com/reliable-cda/cda/internal/storage"
)

// BarometerPeriod is the seasonal period of the synthetic Swiss
// Labour Market Barometer, matching the Figure 1 dialogue ("the best
// fitted seasonal period is 6").
const BarometerPeriod = 6

// BarometerParams shapes the synthetic indicator series.
type BarometerParams struct {
	Months int     // series length
	Level  float64 // base level
	Slope  float64 // per-month trend
	Amp    float64 // seasonal amplitude
	Noise  float64 // residual std dev
	Seed   int64
}

// DefaultBarometerParams reproduces the Figure 1 numbers: 120 monthly
// points ("the last 10 years"), period 6, and noise tuned so the
// seasonal-strength confidence lands near 0.9.
func DefaultBarometerParams() BarometerParams {
	return BarometerParams{Months: 120, Level: 100, Slope: 0.05, Amp: 8, Noise: 2.3, Seed: 42}
}

// BarometerSeries generates the raw values.
func BarometerSeries(p BarometerParams) []float64 {
	rng := rand.New(rand.NewSource(p.Seed))
	xs := make([]float64, p.Months)
	for i := range xs {
		xs[i] = p.Level + p.Slope*float64(i) +
			p.Amp*math.Sin(2*math.Pi*float64(i)/float64(BarometerPeriod)) +
			p.Noise*rng.NormFloat64()
	}
	return xs
}

// BarometerTable wraps the series in a storage table (month, value).
func BarometerTable(p BarometerParams) *storage.Table {
	t := storage.NewTable("barometer", storage.Schema{
		{Name: "month", Kind: storage.KindInt, Description: "months since series start"},
		{Name: "value", Kind: storage.KindFloat, Description: "barometer indicator value"},
	})
	t.Description = "Swiss Labour Market Barometer, monthly indicator"
	for i, v := range BarometerSeries(p) {
		t.MustAppendRow(storage.Int(int64(i+1)), storage.Float(v))
	}
	return t
}

// EmploymentTable generates the "employment type distribution"
// dataset of Figure 1's first answer.
func EmploymentTable(seed int64) *storage.Table {
	rng := rand.New(rand.NewSource(seed))
	t := storage.NewTable("employment", storage.Schema{
		{Name: "year", Kind: storage.KindInt, Description: "calendar year"},
		{Name: "canton", Kind: storage.KindString, Description: "Swiss canton"},
		{Name: "employment_type", Kind: storage.KindString, Description: "full time or part time"},
		{Name: "employees", Kind: storage.KindInt, Description: "employees older than 15"},
	})
	t.Description = "Employment type distribution for employees older than 15"
	cantons := []string{"Zurich", "Bern", "Geneva", "Vaud", "Ticino"}
	types := []string{"full_time", "part_time"}
	for year := 2015; year <= 2024; year++ {
		for _, c := range cantons {
			for _, ty := range types {
				base := 50000 + rng.Intn(150000)
				t.MustAppendRow(storage.Int(int64(year)), storage.Str(c), storage.Str(ty), storage.Int(int64(base)))
			}
		}
	}
	return t
}

// SwissDomain bundles everything the Figure 1 scenario needs: the
// data, the catalog entries, the knowledge graph, and the domain
// vocabulary.
type SwissDomain struct {
	DB      *storage.Database
	Catalog *catalog.Catalog
	KG      *kg.Store
	Vocab   *ground.Vocabulary
	// Documents are the methodology notes backing extractive QA.
	Documents []docqa.Document
	// Now is the logical epoch used for freshness (months).
	Now int
}

// BarometerSource is the citable origin of the synthetic barometer.
const BarometerSource = "https://www.arbeit.swiss/secoalv/en/home/schweizer-arbeitsmarktbarometer.html"

// NewSwissDomain builds the deterministic Figure 1 world.
func NewSwissDomain(seed int64) *SwissDomain {
	db := storage.NewDatabase("swiss")
	bar := BarometerTable(DefaultBarometerParams())
	emp := EmploymentTable(seed + 1)
	db.Put(bar)
	db.Put(emp)

	now := 120
	cat := catalog.New()
	cat.Add(catalog.Dataset{
		ID: "barometer", Name: "Swiss Labour Market Barometer",
		Description: "monthly leading indicator based on a survey of labour market experts from selected employment centers in 22 cantons",
		Source:      BarometerSource,
		Tags:        []string{"labour", "market", "employment", "indicator", "monthly"},
		Table:       bar, UpdatedAt: now, Cadence: 1,
	})
	cat.Add(catalog.Dataset{
		ID: "employment", Name: "Employment type distribution",
		Description: "distribution of full-time and part-time employment for employees older than 15 years, by canton and year",
		Source:      "https://www.bfs.admin.ch/",
		Tags:        []string{"employment", "demographics", "workforce"},
		Table:       emp, UpdatedAt: now - 2, Cadence: 12,
	})
	cat.Add(catalog.Dataset{
		ID: "chocolate", Name: "Chocolate exports",
		Description: "annual chocolate export volumes by destination country",
		Source:      "https://www.chocosuisse.ch/",
		Tags:        []string{"food", "trade"},
		UpdatedAt:   now - 6, Cadence: 12,
	})

	st := kg.NewStore()
	st.Add(kg.Triple{S: "swiss:Barometer", P: kg.PredType, O: "swiss:Indicator", Source: "catalog"})
	st.Add(kg.Triple{S: "swiss:Indicator", P: kg.PredSubClassOf, O: "swiss:Dataset", Source: "ontology"})
	st.Add(kg.Triple{S: "swiss:Barometer", P: kg.PredLabel, O: "Swiss Labour Market Barometer", Source: "catalog"})
	st.Add(kg.Triple{S: "swiss:Barometer", P: kg.PredSynonym, O: "workforce barometer", Source: "catalog"})
	st.Add(kg.Triple{S: "swiss:Barometer", P: kg.PredSynonym, O: "barometer", Source: "catalog"})
	st.Add(kg.Triple{S: "swiss:Barometer", P: kg.PredComment,
		O: "a monthly leading indicator based on a survey of labour market experts from selected employment centers in 22 cantons", Source: BarometerSource})
	st.Add(kg.Triple{S: "swiss:Employment", P: kg.PredLabel, O: "employment", Source: "catalog"})
	st.Add(kg.Triple{S: "swiss:Employment", P: kg.PredType, O: "swiss:Topic", Source: "catalog"})
	st.Add(kg.Triple{S: "swiss:LabourMarket", P: kg.PredLabel, O: "labour market", Source: "catalog"})
	st.Add(kg.Triple{S: "swiss:LabourMarket", P: kg.PredType, O: "swiss:Topic", Source: "catalog"})
	st.Add(kg.Triple{S: "swiss:Barometer", P: "swiss:about", O: "swiss:LabourMarket", Source: "catalog"})
	st.Infer()

	vocab := ground.NewVocabulary()
	vocab.AddSynonym("working force", "employment")
	vocab.AddSynonym("working force", "labour market")
	vocab.AddSynonym("workforce", "employment")
	vocab.AddSynonym("workforce", "labour market")
	vocab.AddSynonym("labor market", "labour market")
	vocab.AddSynonym("jobs", "employment")

	docs := []docqa.Document{
		{
			ID: "barometer-methodology", Source: BarometerSource,
			Text: "The Swiss Labour Market Barometer is computed from a monthly survey of labour market experts. " +
				"Experts in 22 cantonal employment centers report their hiring expectations. " +
				"Responses are aggregated into a diffusion index centered at 100.",
		},
		{
			ID: "employment-notes", Source: "https://www.bfs.admin.ch/",
			Text: "Employment statistics cover employees older than 15 years. " +
				"Full-time and part-time positions are reported separately for each canton.",
		},
	}

	return &SwissDomain{DB: db, Catalog: cat, KG: st, Vocab: vocab, Documents: docs, Now: now}
}

// Figure1Turns returns the four user utterances of the paper's
// example dialogue, in order.
func Figure1Turns() []string {
	return []string{
		"Give me an overview of the working force in Switzerland",
		"What is the Swiss workforce barometer?",
		"I am interested in the barometer",
		"Can you please give me the seasonality insights, such as overall trend, etc.",
	}
}
