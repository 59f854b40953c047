package hotbench

import (
	"os"
	"path/filepath"
	"testing"
)

// TestLoadReportKeepsOlderRunsUnattributed pins the v3 upgrade: a v2 file
// loads under the current schema with its runs' stamps empty, and
// re-measuring one of its labels stamps that run and keeps the stages the
// new measurement did not cover.
func TestLoadReportKeepsOlderRunsUnattributed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_hotpath.json")
	v2 := `{"schema": "phasemark/bench-hotpath/v2", "runs": [
		{"label": "old", "go": "go1.22", "stages": [{"name": "interp_dispatch", "ns_op": 1}, {"name": "cluster", "ns_op": 2}]}]}`
	if err := os.WriteFile(path, []byte(v2), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := LoadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != Schema {
		t.Fatalf("schema %q after load, want %q", rep.Schema, Schema)
	}
	if r := rep.Runs[0]; r.NProc != 0 || r.GOMAXPROCS != 0 || r.CPU != "" || r.Date != "" {
		t.Fatalf("v2 run loaded with a stamp: %+v", r)
	}

	run := Run{Label: "old", Stages: []StageResult{{Name: "cluster", NsPerOp: 3}}}
	run.stamp()
	rep.SetRun(run)
	got := rep.Runs[0]
	if got.NProc < 1 || got.GOMAXPROCS < 1 || got.CPU == "" || got.Date == "" {
		t.Fatalf("re-measured run not stamped: %+v", got)
	}
	if len(got.Stages) != 2 || got.Stages[0].NsPerOp != 1 || got.Stages[1].NsPerOp != 3 {
		t.Fatalf("stage-wise merge lost or misplaced stages: %+v", got.Stages)
	}

	bad := filepath.Join(t.TempDir(), "other.json")
	if err := os.WriteFile(bad, []byte(`{"schema": "phasemark/bench-obs/v1"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadReport(bad); err == nil {
		t.Fatal("a foreign schema loaded without error")
	}
}
