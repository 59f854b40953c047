package service

import (
	"context"
	"reflect"
	"testing"

	"phasemark/internal/trace"
)

// TestTraceMatchesMaterializedRun pins the memoized trace: the result a
// pipeline at an engine share (workers 4) memoizes must equal a
// serial materializing trace.Run (Workers 1) of the same config, BBVs
// included.
func TestTraceMatchesMaterializedRun(t *testing.T) {
	req, err := SegmentRequest{Workload: "lucas", FixedLen: 100_000}.Canon()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	p := &Pipeline{workers: 4}
	got, err := p.Trace(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := p.segConfig(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 1
	want, err := trace.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Intervals) != len(want.Intervals) {
		t.Fatalf("%d intervals, want %d", len(got.Intervals), len(want.Intervals))
	}
	for i := range want.Intervals {
		if !reflect.DeepEqual(got.Intervals[i], want.Intervals[i]) {
			t.Fatalf("interval %d = %+v, want %+v", i, got.Intervals[i], want.Intervals[i])
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("run totals differ: got %+v, want %+v", *got, *want)
	}
}
