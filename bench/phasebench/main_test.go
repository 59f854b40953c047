package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/expected_seed1.json from full seed-1 runs")

type declared struct{ Name, Unit string }

// benchmarkSpec is the part of BENCHMARK.json the tests check against.
type benchmarkSpec struct {
	Workloads []declared `json:"workloads"`
	EndToEnd  []declared `json:"end_to_end"`
	PerLayer  []declared `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// shrink sets the smoke-size hook for one test.
func shrink(t *testing.T, programs, passes, requests int) {
	old := smoke
	smoke = &struct{ programs, passes, requests int }{programs, passes, requests}
	t.Cleanup(func() { smoke = old })
}

func runArgs(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestUsageErrorsExit2(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope", "--seed", "1"},
		{"--workload", "select_suite"},
		{"--workload", "select_suite", "--seed", "x1"},
		{"--workload", "select_suite", "--seed", "-1"},
		{"--workload", "select_suite", "--seed", "1", "--trace", "2"},
		{"--workload", "select_suite", "--seed", "1", "--seconds", "0"},
	} {
		if code, out, _ := runArgs(args...); code != 2 || out != "" {
			t.Errorf("%q: exit %d, stdout %q; want exit 2 and no output", args, code, out)
		}
	}
}

// TestEveryWorkloadReportsDeclaredMetrics runs every workload at smoke
// size, untraced and traced, and checks that each declared metric is
// printed with its unit, that the JSON line carries exactly the declared
// set, and that verification (including the seed-1 digests) passes.
func TestEveryWorkloadReportsDeclaredMetrics(t *testing.T) {
	spec := loadSpec(t)
	shrink(t, 2, 1, 20)
	for _, w := range spec.Workloads {
		for trace, want := range [][]declared{spec.EndToEnd, spec.PerLayer} {
			code, out, errs := runArgs("--workload", w.Name, "--seed", "1", "--seconds", "1", "--trace", strconv.Itoa(trace))
			if code != 0 {
				t.Fatalf("%s trace=%d: exit %d\n%s", w.Name, trace, code, errs)
			}
			lines := strings.Split(strings.TrimSpace(out), "\n")
			printed := map[string]string{}
			for _, l := range lines {
				if f := strings.Fields(l); len(f) == 3 {
					printed[f[0]] = f[2]
				}
			}
			var last struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s trace=%d: last line: %v", w.Name, trace, err)
			}
			if !last.Correct || last.Failed != 0 || last.Attempted < 1 || len(last.Metrics) != len(want) {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d metrics=%d, want %d",
					w.Name, trace, last.Correct, last.Attempted, last.Failed, len(last.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := last.Metrics[m.Name]; !ok || got.Unit != m.Unit || printed[m.Name] != m.Unit {
					t.Errorf("%s trace=%d: %s: JSON %+v, printed unit %q; want unit %q", w.Name, trace, m.Name, got, printed[m.Name], m.Unit)
				}
			}
		}
	}
}

func TestSeedChangesOutputsNotWork(t *testing.T) {
	shrink(t, 16, 1, 0)
	cfg := config{workload: "select_suite", seconds: 1, log: io.Discard}
	var runs [2]*result
	for i := range runs {
		cfg.seed = uint64(i + 1)
		r, err := runWorkload(cfg, nil, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", cfg.seed, err)
		}
		if r.failed > 0 {
			t.Fatalf("seed %d: %d ops failed", cfg.seed, r.failed)
		}
		runs[i] = r
	}
	changed := 0
	for name, d := range runs[0].digests {
		if runs[1].digests[name] != d {
			changed++
		}
	}
	if changed == 0 {
		t.Error("seeds 1 and 2 gave identical digests for every program")
	}
	a, b := float64(runs[0].instrs), float64(runs[1].instrs)
	if d := (b - a) / a; d > 0.05 || d < -0.05 {
		t.Errorf("guest instructions per pass %v at seed 1, %v at seed 2: differ by more than 5%%", a, b)
	}
}

// TestExpectedSeed1 regenerates the expected outputs with -update: the
// digests and guest instructions of every program of each batch workload
// at seed 1 (the materializing serial trace path).
func TestExpectedSeed1(t *testing.T) {
	if !*update {
		t.Skip("run with -update to regenerate testdata/expected_seed1.json")
	}
	shrink(t, 1<<30, 1, 0)
	exp := expected{Seed: 1, Digests: map[string]map[string]string{}, Work: map[string]map[string]uint64{}}
	for name := range batchWorkloads {
		r, err := runWorkload(config{workload: name, seed: exp.Seed, seconds: 1, log: os.Stderr}, nil, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.failed > 0 {
			t.Fatalf("%s: %d ops failed", name, r.failed)
		}
		exp.Digests[name], exp.Work[name] = r.digests, r.work
	}
	b, err := json.MarshalIndent(exp, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("testdata/expected_seed1.json", append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
