package main

import (
	"encoding/json"
	"io"

	"github.com/reliable-cda/cda/internal/analysis"
)

// Minimal SARIF 2.1.0 document: enough structure for CI annotation
// surfaces (one run, one driver, rule metadata, physical locations).
type sarifReport struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name           string      `json:"name"`
	InformationURI string      `json:"informationUri,omitempty"`
	Rules          []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string               `json:"id"`
	ShortDescription sarifMultiformatMsg  `json:"shortDescription"`
	DefaultConfig    sarifRuleDefaultConf `json:"defaultConfiguration"`
}

type sarifMultiformatMsg struct {
	Text string `json:"text"`
}

type sarifRuleDefaultConf struct {
	Level string `json:"level"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysicalLocation `json:"physicalLocation"`
}

type sarifPhysicalLocation struct {
	ArtifactLocation sarifArtifactLocation `json:"artifactLocation"`
	Region           sarifRegion           `json:"region"`
}

type sarifArtifactLocation struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn"`
}

func sarifLevel(s analysis.Severity) string {
	if s == analysis.SeverityError {
		return "error"
	}
	return "warning"
}

func writeSARIF(w io.Writer, findings []analysis.Finding) error {
	var rules []sarifRule
	for _, a := range analysis.Analyzers() {
		rules = append(rules, sarifRule{
			ID:               a.Name,
			ShortDescription: sarifMultiformatMsg{Text: a.Doc},
			DefaultConfig:    sarifRuleDefaultConf{Level: sarifLevel(a.Severity)},
		})
	}
	results := make([]sarifResult, 0, len(findings))
	for _, f := range findings {
		results = append(results, sarifResult{
			RuleID:  f.Rule,
			Level:   sarifLevel(f.Severity),
			Message: sarifMessage{Text: f.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysicalLocation{
					ArtifactLocation: sarifArtifactLocation{URI: f.Pos.Filename},
					Region:           sarifRegion{StartLine: f.Pos.Line, StartColumn: f.Pos.Column},
				},
			}},
		})
	}
	doc := sarifReport{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "cdalint", Rules: rules}},
			Results: results,
		}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
