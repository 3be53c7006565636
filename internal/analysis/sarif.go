package analysis

import (
	"encoding/json"
	"os"
)

// SARIF 2.1.0 output, the static-analysis interchange format CI code
// scanners ingest. The writer emits the minimal valid subset: one run,
// the driver's rule table (one rule per analyzer), and one result per
// kept finding with a physical location. Suppressed findings are emitted
// with an in-source suppression attached so scanners show them as
// reviewed rather than open.

type sarifLog struct {
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
	Name  string      `json:"name"`
	Rules []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID       string             `json:"ruleId"`
	Level        string             `json:"level"`
	Message      sarifMessage       `json:"message"`
	Locations    []sarifLocation    `json:"locations"`
	Suppressions []sarifSuppression `json:"suppressions,omitempty"`
}

type sarifSuppression struct {
	Kind          string `json:"kind"`
	Justification string `json:"justification,omitempty"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysical `json:"physicalLocation"`
}

type sarifPhysical struct {
	ArtifactLocation sarifArtifact `json:"artifactLocation"`
	Region           sarifRegion   `json:"region"`
}

type sarifArtifact struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

func sarifResultOf(d Diagnostic, level string) sarifResult {
	return sarifResult{
		RuleID:  d.Analyzer,
		Level:   level,
		Message: sarifMessage{Text: d.Message},
		Locations: []sarifLocation{{
			PhysicalLocation: sarifPhysical{
				ArtifactLocation: sarifArtifact{URI: d.File},
				Region:           sarifRegion{StartLine: d.Line, StartColumn: d.Col},
			},
		}},
	}
}

// WriteSARIF writes the run to path. Kept findings become warnings;
// suppressed ones become in-source suppressions.
func WriteSARIF(path string, azs []*Analyzer, kept, suppressed []Diagnostic) error {
	rules := make([]sarifRule, 0, len(azs))
	for _, a := range azs {
		rules = append(rules, sarifRule{ID: a.Name, ShortDescription: sarifMessage{Text: a.Doc}})
	}
	results := make([]sarifResult, 0, len(kept)+len(suppressed))
	for _, d := range kept {
		results = append(results, sarifResultOf(d, "warning"))
	}
	for _, d := range suppressed {
		r := sarifResultOf(d, "note")
		r.Suppressions = []sarifSuppression{{Kind: "inSource", Justification: "vet:allow directive"}}
		results = append(results, r)
	}
	log := sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "infoshield-vet", Rules: rules}},
			Results: results,
		}},
	}
	data, err := json.MarshalIndent(&log, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
