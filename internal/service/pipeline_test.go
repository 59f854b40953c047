package service

import (
	"context"
	"reflect"
	"testing"

	"phasemark/internal/trace"
)

// TestTraceMatchesMaterializedRun pins the deep copy in Trace's sink: the
// result memoized from the streamed run must equal a materializing
// trace.Run of the same config, BBVs included, at any engine worker
// count. lucas at fixed 100k cuts has more intervals than one 256-interval
// chunk holds, so a sink that kept the tracer's chunk or BBV storage would
// find its first chunk overwritten by the second.
func TestTraceMatchesMaterializedRun(t *testing.T) {
	req, err := SegmentRequest{Workload: "lucas", FixedLen: 100_000}.Canon()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, workers := range []int{0, 4} {
		p := &Pipeline{Workers: workers}
		got, err := p.Trace(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := p.segConfig(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		want, err := trace.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(want.Intervals); n <= 256 {
			t.Fatalf("%d intervals fit in one streamed chunk; the test needs more", n)
		}
		if len(got.Intervals) != len(want.Intervals) {
			t.Fatalf("workers=%d: %d intervals, want %d", workers, len(got.Intervals), len(want.Intervals))
		}
		for i := range want.Intervals {
			if !reflect.DeepEqual(got.Intervals[i], want.Intervals[i]) {
				t.Fatalf("workers=%d: interval %d = %+v, want %+v", workers, i, got.Intervals[i], want.Intervals[i])
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: run totals differ: got %+v, want %+v", workers, *got, *want)
		}
	}
}
