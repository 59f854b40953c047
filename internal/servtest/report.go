package servtest

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Schema identifies the BENCH_service.json record layout. See
// EXPERIMENTS.md for the field-by-field description. v2 added the
// per-stage latency splits, per-outcome latency, the telemetry
// consistency counts, and the build stamp.
const Schema = "phasemark/bench-service/v2"

// schemaV1 is the pre-telemetry layout; a v1 file is superseded rather
// than merged, since its runs lack the stage and outcome splits.
const schemaV1 = "phasemark/bench-service/v1"

// Report is the committed service stress record: one run per labelled
// measurement, each covering every scenario.
type Report struct {
	Schema string `json:"schema"`
	Runs   []Run  `json:"runs"`
}

// Run is one labelled stress measurement.
type Run struct {
	Label     string           `json:"label"`
	Go        string           `json:"go"`
	Build     string           `json:"build,omitempty"`
	Workers   int              `json:"workers"`
	Queue     int              `json:"queue"`
	Scenarios []ScenarioResult `json:"scenarios"`
}

// LoadReport reads a bench-service report, returning an empty one when
// the file does not exist. A file with a different schema is an error,
// not a silent overwrite.
func LoadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return &Report{Schema: Schema}, nil
	}
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("servtest: parsing %s: %w", path, err)
	}
	if r.Schema == schemaV1 {
		// The v1 layout predates the telemetry fields; start a fresh v2
		// report instead of mixing incomparable runs.
		return &Report{Schema: Schema}, nil
	}
	if r.Schema != Schema {
		return nil, fmt.Errorf("servtest: %s has schema %q, want %q", path, r.Schema, Schema)
	}
	return &r, nil
}

// SetRun merges run into the report. A new label appends; an existing
// label is updated scenario-wise — scenarios present in run replace their
// namesakes, absent ones are preserved — so partial re-runs never discard
// history.
func (r *Report) SetRun(run Run) {
	for i := range r.Runs {
		if r.Runs[i].Label != run.Label {
			continue
		}
		scenarios := r.Runs[i].Scenarios
		for _, sc := range run.Scenarios {
			replaced := false
			for j := range scenarios {
				if scenarios[j].Name == sc.Name {
					scenarios[j] = sc
					replaced = true
					break
				}
			}
			if !replaced {
				scenarios = append(scenarios, sc)
			}
		}
		// The header (Go, build, workers, queue) follows the latest
		// measurement.
		r.Runs[i] = run
		r.Runs[i].Scenarios = scenarios
		return
	}
	r.Runs = append(r.Runs, run)
}

// Write renders the report as indented JSON.
func (r *Report) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
