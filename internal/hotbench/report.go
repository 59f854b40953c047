package hotbench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

// Schema identifies the BENCH_hotpath.json record layout. See
// EXPERIMENTS.md for the field-by-field description (documented next to
// phasemark/bench-obs/v1). v2 extended v1 with the analysis stages
// (project, cluster); v3 stamps every run with the machine and date it
// was measured on. v1 and v2 runs load with an empty stamp, meaning
// unattributed, and the file is upgraded in place on the next write.
const Schema = "phasemark/bench-hotpath/v3"

// Report is the committed hot-path performance record: one run per
// labelled measurement (e.g. the seed implementation vs. the optimized
// one), each covering every stage.
type Report struct {
	Schema string `json:"schema"`
	Runs   []Run  `json:"runs"`
}

// Run is one labelled measurement of all stages. The stamp (NProc,
// GOMAXPROCS, CPU, Date) names the machine and UTC date of the run's
// latest measurement; it is empty on runs recorded before v3.
type Run struct {
	Label      string        `json:"label"`
	Go         string        `json:"go"`
	NProc      int           `json:"nproc,omitempty"`
	GOMAXPROCS int           `json:"gomaxprocs,omitempty"`
	CPU        string        `json:"cpu,omitempty"`
	Date       string        `json:"date,omitempty"`
	Stages     []StageResult `json:"stages"`
}

// stamp fills the run's machine and date fields from the running process.
func (r *Run) stamp() {
	r.Go = runtime.Version()
	r.NProc = runtime.NumCPU()
	r.GOMAXPROCS = runtime.GOMAXPROCS(0)
	r.CPU = cpuModel()
	r.Date = time.Now().UTC().Format(time.RFC3339)
}

// cpuModel reads the first "model name" line of /proc/cpuinfo, or
// "unknown" where there is none.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// StageResult is one stage's measurement: the median of Samples
// testing.Benchmark runs, with the fastest and slowest runs' ns/op as its
// spread (runs recorded before the spread was kept have none). Work units
// are dynamic instructions for the execution stages and memory events for
// cpu_onmem; Unit names the work unit so WorkPerSec reads unambiguously.
type StageResult struct {
	Name        string  `json:"name"`
	Desc        string  `json:"desc"`
	Unit        string  `json:"unit"`
	NsPerOp     float64 `json:"ns_op"`
	NsPerOpMin  float64 `json:"ns_op_min,omitempty"`
	NsPerOpMax  float64 `json:"ns_op_max,omitempty"`
	Samples     int     `json:"samples,omitempty"`
	BytesPerOp  int64   `json:"bytes_op"`
	AllocsPerOp int64   `json:"allocs_op"`
	WorkPerOp   uint64  `json:"work_per_op"`
	WorkPerSec  float64 `json:"work_per_sec"`
}

// Samples is how many testing.Benchmark runs MeasureStage takes of a
// stage: one run cannot tell a change from host noise.
const Samples = 3

// MeasureStage benchmarks one stage as Samples testing.Benchmark runs,
// each picking its iteration count the way `go test -bench` does, and
// returns the median run with the spread of all of them.
func MeasureStage(st Stage) (StageResult, error) {
	run, err := st.New()
	if err != nil {
		return StageResult{}, fmt.Errorf("hotbench: %s: %w", st.Name, err)
	}
	runs := make([]StageResult, Samples)
	for i := range runs {
		if runs[i], err = sample(run); err != nil {
			return StageResult{}, fmt.Errorf("hotbench: %s: %w", st.Name, err)
		}
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].NsPerOp < runs[j].NsPerOp })
	sr := runs[len(runs)/2]
	sr.Name, sr.Desc, sr.Unit = st.Name, st.Desc, st.Unit
	sr.NsPerOpMin, sr.NsPerOpMax, sr.Samples = runs[0].NsPerOp, runs[len(runs)-1].NsPerOp, len(runs)
	return sr, nil
}

// sample is one testing.Benchmark run of a stage's op.
func sample(run func() (uint64, error)) (StageResult, error) {
	var work uint64
	var runErr error
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w, err := run()
			if err != nil {
				runErr = err
				b.Fatal(err)
			}
			work = w
		}
	})
	if runErr != nil {
		return StageResult{}, runErr
	}
	sr := StageResult{
		NsPerOp:     float64(res.NsPerOp()),
		BytesPerOp:  res.AllocedBytesPerOp(),
		AllocsPerOp: res.AllocsPerOp(),
		WorkPerOp:   work,
	}
	if secs := res.T.Seconds(); secs > 0 {
		sr.WorkPerSec = float64(work) * float64(res.N) / secs
	}
	return sr, nil
}

// Measure benchmarks the given stages (every stage when nil) and returns
// them as one labelled run, reporting progress on w (one line per stage).
func Measure(label string, stages []Stage, w io.Writer) (Run, error) {
	if stages == nil {
		stages = Stages()
	}
	run := Run{Label: label}
	run.stamp()
	for _, st := range stages {
		sr, err := MeasureStage(st)
		if err != nil {
			return Run{}, err
		}
		fmt.Fprintf(w, "  %-16s %12.1f ns/op (%.1f-%.1f)  %8d allocs/op  %10.1f %s\n",
			st.Name, sr.NsPerOp, sr.NsPerOpMin, sr.NsPerOpMax, sr.AllocsPerOp, sr.WorkPerSec/1e6, sr.Unit)
		run.Stages = append(run.Stages, sr)
	}
	return run, nil
}

// LoadReport reads a bench-hotpath report, returning an empty one when the
// file does not exist. A file with a different schema is an error, not a
// silent overwrite.
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
		return nil, fmt.Errorf("hotbench: parsing %s: %w", path, err)
	}
	switch r.Schema {
	case "phasemark/bench-hotpath/v1", "phasemark/bench-hotpath/v2":
		r.Schema = Schema // their runs are unattributed v3 runs; upgrade in place
	}
	if r.Schema != Schema {
		return nil, fmt.Errorf("hotbench: %s has schema %q, want %q", path, r.Schema, Schema)
	}
	return &r, nil
}

// SetRun merges run into the report. A new label appends; an existing
// label is updated stage-wise — stages present in run replace their
// namesakes, stages absent from run (e.g. when `-bench-stages` measured a
// subset) are preserved — so re-measuring never discards history.
func (r *Report) SetRun(run Run) {
	for i := range r.Runs {
		if r.Runs[i].Label != run.Label {
			continue
		}
		stages := r.Runs[i].Stages
		for _, sr := range run.Stages {
			replaced := false
			for j := range stages {
				if stages[j].Name == sr.Name {
					stages[j] = sr
					replaced = true
					break
				}
			}
			if !replaced {
				stages = append(stages, sr)
			}
		}
		// The stamp and Go version follow the latest measurement.
		r.Runs[i] = run
		r.Runs[i].Stages = stages
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
