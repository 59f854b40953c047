package experiments

import (
	"bytes"
	"context"
	"runtime"
	"strings"
	"testing"

	"phasemark/internal/check"
	"phasemark/internal/workloads"
)

// figureTraceModes is every segmentation mode any figure traces: the five
// fixed interval lengths and the five marker-selection configs. The
// property test sweeps all of them so no figure path can ship intervals
// that fail to tile the execution.
func figureTraceModes() []struct {
	mode    string
	markers bool
} {
	modes := []struct {
		mode    string
		markers bool
	}{
		{fixedMode(FixedLen), false},
		{fixedMode(TinyFixed), false},
		{fixedMode(SPFixed1), false},
		{fixedMode(SPFixed10), false},
		{fixedMode(SPFixed100), false},
	}
	for _, mc := range markerConfigs {
		modes = append(modes, struct {
			mode    string
			markers bool
		}{mc.Name, true})
	}
	return modes
}

// TestSegmentationTilesEveryFigurePath runs the segmentation invariant
// against every (workload, trace mode) pair the figures consume.
func TestSegmentationTilesEveryFigurePath(t *testing.T) {
	if testing.Short() {
		t.Skip("traces every workload in every mode; skipped in -short")
	}
	if raceEnabled {
		t.Skip("too slow under -race; TestCheckWorkloadSmoke covers the harness")
	}
	s := NewSuite(runtime.GOMAXPROCS(0))
	ctx := context.Background()
	modes := figureTraceModes()
	err := s.ForEachWorkload(workloads.All(), func(i int, w *workloads.Workload) error {
		for _, m := range modes {
			res, err := s.traced(ctx, w, m.mode)
			if err != nil {
				return err
			}
			num := -1
			if m.markers {
				set, err := s.markers(ctx, w, m.mode)
				if err != nil {
					return err
				}
				num = len(set.Markers)
			}
			if err := check.Segmentation(res, num); err != nil {
				t.Errorf("%s/%s: %v", w.Name, m.mode, err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCheckWorkloadSmoke runs the full invariant suite on one workload —
// quick enough for every test run (including -race, which is the point:
// the harness shares the suite's concurrent caches).
func TestCheckWorkloadSmoke(t *testing.T) {
	s := NewSuite(runtime.GOMAXPROCS(0))
	ws := workloads.All()
	w := ws[0]
	for _, c := range ws {
		if c.Name == "compress" {
			w = c
		}
	}
	cs, err := s.checkWorkload(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) < 7 {
		t.Fatalf("expected >= 7 invariants, got %d", len(cs))
	}
	for _, c := range cs {
		if c.Err != nil {
			t.Errorf("%s/%s: %v", w.Name, c.Name, c.Err)
		}
	}
}

// TestRunChecksReportFormat exercises the report writer on the real
// suite across two workloads' worth of artifacts via RunChecks' own
// pool — gated, since it traces those workloads end to end.
func TestRunChecksReportFormat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the invariant suite over every workload; skipped in -short")
	}
	if raceEnabled {
		t.Skip("too slow under -race; TestCheckWorkloadSmoke covers the harness")
	}
	s := NewSuite(runtime.GOMAXPROCS(0))
	var buf bytes.Buffer
	if err := s.RunChecks(context.Background(), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "check: ") {
		t.Errorf("missing summary line in report:\n%s", out)
	}
	if strings.Contains(out, "FAIL") {
		t.Errorf("report contains failures:\n%s", out)
	}
	for _, w := range workloads.All() {
		if !strings.Contains(out, w.Name) {
			t.Errorf("report missing workload %s", w.Name)
		}
	}
}
