package check

import (
	"fmt"
	"strings"
	"testing"

	"phasemark/internal/bbv"
	"phasemark/internal/compile"
	"phasemark/internal/core"
	"phasemark/internal/minivm"
	"phasemark/internal/simpoint"
	"phasemark/internal/trace"
)

// phasedSrc alternates two loop-dominated procedures and emits a running
// checksum, so every invariant (segmentation tiling, the backend oracle,
// instrumentation equivalence) has real structure to bite on.
const phasedSrc = `
array buf[512];
proc squeeze(n) {
	var s = 0;
	for (var i = 0; i < n; i = i + 1) {
		buf[i % 512] = buf[i % 512] + i;
		s = s + buf[i % 512];
	}
	return s;
}
proc stretch(n) {
	var s = 0;
	for (var i = 0; i < n; i = i + 1) {
		s = s + buf[(i * 7) % 512] * 3;
	}
	return s;
}
proc main(reps, n) {
	var s = 0;
	for (var r = 0; r < reps; r = r + 1) {
		s = s + squeeze(n);
		s = s + stretch(n);
		out(s);
	}
	return s;
}
`

var phasedArgs = []int64{20, 400}

func phasedSetup(t *testing.T) (*minivm.Program, *core.MarkerSet) {
	t.Helper()
	prog, err := compile.CompileSource(phasedSrc, compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	g, err := core.ProfileRun(prog, phasedArgs...)
	if err != nil {
		t.Fatal(err)
	}
	set := core.SelectMarkers(g, core.SelectOptions{ILower: 1000})
	if len(set.Markers) == 0 {
		t.Fatal("no markers selected")
	}
	return prog, set
}

func mustTrace(t *testing.T, cfg trace.Config) *trace.Result {
	t.Helper()
	res, err := trace.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestInvariantsHoldOnPhasedProgram is the positive path: a healthy
// pipeline run must pass every check in the harness.
func TestInvariantsHoldOnPhasedProgram(t *testing.T) {
	prog, set := phasedSetup(t)

	fixedCfg := trace.Config{Prog: prog, Args: phasedArgs, FixedLen: 1000}
	fixed := mustTrace(t, fixedCfg)
	if err := Segmentation(fixed, -1); err != nil {
		t.Errorf("fixed-length segmentation: %v", err)
	}
	vliCfg := trace.Config{Prog: prog, Args: phasedArgs, Markers: set}
	vli := mustTrace(t, vliCfg)
	if err := Segmentation(vli, len(set.Markers)); err != nil {
		t.Errorf("marker segmentation: %v", err)
	}
	for _, mode := range []struct {
		name string
		cfg  trace.Config
		res  *trace.Result
	}{{"fixed", fixedCfg, fixed}, {"marker", vliCfg, vli}} {
		for _, workers := range []int{1, 2} {
			if err := Streaming(mode.cfg, mode.res, workers); err != nil {
				t.Errorf("%s streaming at workers %d: %v", mode.name, workers, err)
			}
		}
	}

	cl := simpoint.Classify(fixed, simpoint.Options{KMax: 5, Seed: 1})
	if err := Clustering(cl, len(fixed.Intervals)); err != nil {
		t.Errorf("clustering: %v", err)
	}

	if err := DetectorInstrument(prog, set, phasedArgs...); err != nil {
		t.Errorf("detector/instrument: %v", err)
	}
	if err := CrossBinary(phasedSrc, prog, set, phasedArgs...); err != nil {
		t.Errorf("cross-binary: %v", err)
	}
}

// cloneResult deep-copies a traced result so tests can corrupt one field
// without disturbing the original.
func cloneResult(res *trace.Result) *trace.Result {
	out := *res
	out.Intervals = make([]*trace.Interval, len(res.Intervals))
	for i, iv := range res.Intervals {
		c := *iv
		c.BBV = bbv.Vector{
			Idx: append([]int32(nil), iv.BBV.Idx...),
			Val: append([]float64(nil), iv.BBV.Val...),
		}
		out.Intervals[i] = &c
	}
	return &out
}

// TestSegmentationRejectsCorruption corrupts a healthy traced result one
// field at a time and asserts the matching invariant trips.
func TestSegmentationRejectsCorruption(t *testing.T) {
	prog, set := phasedSetup(t)
	res := mustTrace(t, trace.Config{Prog: prog, Args: phasedArgs, Markers: set})
	n := len(set.Markers)
	if len(res.Intervals) < 3 {
		t.Fatalf("need >= 3 intervals, got %d", len(res.Intervals))
	}
	cases := []struct {
		name    string
		corrupt func(r *trace.Result)
		want    string
	}{
		{"gap", func(r *trace.Result) { r.Intervals[1].Start++ }, "gap or overlap"},
		{"zero-length", func(r *trace.Result) { r.Intervals[1].End = r.Intervals[1].Start }, "empty or inverted"},
		{"bad-index", func(r *trace.Result) { r.Intervals[2].Index = 7 }, "carries index"},
		{"bbv-mass", func(r *trace.Result) { r.Intervals[1].BBV.Val[0] += 3 }, "BBV mass"},
		{"bad-phase", func(r *trace.Result) { r.Intervals[1].PhaseID = n + 5 }, "out of range"},
		{"short-total", func(r *trace.Result) { r.Instructions += 100 }, "execution ran"},
		{"fires", func(r *trace.Result) { r.MarkerFires = 0 }, "marker fires"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := cloneResult(res)
			tc.corrupt(bad)
			err := Segmentation(bad, n)
			if err == nil {
				t.Fatal("corruption not caught")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want mention of %q", err, tc.want)
			}
		})
	}
	// Fixed-length mode has its own phase rule: any non-prologue phase ID
	// is a violation.
	fixed := mustTrace(t, trace.Config{Prog: prog, Args: phasedArgs, FixedLen: 1000})
	bad := cloneResult(fixed)
	bad.Intervals[0].PhaseID = 0
	if err := Segmentation(bad, -1); err == nil || !strings.Contains(err.Error(), "carries phase") {
		t.Fatalf("fixed-mode phase leak not caught: %v", err)
	}
	bad = cloneResult(fixed)
	bad.MarkerFires = 3
	if err := Segmentation(bad, -1); err == nil || !strings.Contains(err.Error(), "marker fires") {
		t.Fatalf("fixed-mode marker fires not caught: %v", err)
	}
}

// TestStreamingRejectsCorruption corrupts the materialized reference one
// field at a time and asserts that both streaming checks report the
// difference: the streamed run is healthy, so each check must notice
// that it no longer matches the reference.
func TestStreamingRejectsCorruption(t *testing.T) {
	prog, set := phasedSetup(t)
	cfg := trace.Config{Prog: prog, Args: phasedArgs, Markers: set}
	res := mustTrace(t, cfg)
	if len(res.Intervals) < 3 {
		t.Fatalf("need >= 3 intervals, got %d", len(res.Intervals))
	}
	cases := []struct {
		name    string
		corrupt func(r *trace.Result)
		want    string
	}{
		{"bbv-value", func(r *trace.Result) { r.Intervals[1].BBV.Val[0] += 3 }, "interval 1: BBV entry 0 differs"},
		{"phase", func(r *trace.Result) { r.Intervals[2].PhaseID++ },
			fmt.Sprintf("phase %d} vs materialized {idx 2 [%d,%d) phase %d}", res.Intervals[2].PhaseID,
				res.Intervals[2].Start, res.Intervals[2].End, res.Intervals[2].PhaseID+1)},
		{"perf", func(r *trace.Result) { r.Intervals[1].Perf.Cycles++ }, "interval 1: streamed"},
		{"instructions", func(r *trace.Result) { r.Instructions++ },
			fmt.Sprintf("totals differ: instrs %d/%d", res.Instructions, res.Instructions+1)},
		{"truncated", func(r *trace.Result) { r.Intervals = r.Intervals[:len(r.Intervals)-1] },
			fmt.Sprintf("interval %d beyond the %d materialized", len(res.Intervals)-1, len(res.Intervals)-1)},
	}
	checks := []struct {
		name    string
		workers int
	}{{"streaming", 1}, {"streaming-parallel", 2}}
	for _, tc := range cases {
		for _, c := range checks {
			t.Run(tc.name+"/"+c.name, func(t *testing.T) {
				bad := cloneResult(res)
				tc.corrupt(bad)
				err := Streaming(cfg, bad, c.workers)
				if err == nil {
					t.Fatal("corruption not caught")
				}
				if !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("got %v, want mention of %q", err, tc.want)
				}
			})
		}
	}
}

func TestClusteringRejectsViolations(t *testing.T) {
	valid := func() *simpoint.Clustering {
		return &simpoint.Clustering{
			K:       2,
			Assign:  []int{0, 1, 0},
			Weights: []float64{0.5, 0.5},
		}
	}
	if err := Clustering(valid(), 3); err != nil {
		t.Fatalf("valid clustering rejected: %v", err)
	}
	cases := []struct {
		name    string
		corrupt func(c *simpoint.Clustering)
		want    string
	}{
		{"assign-range", func(c *simpoint.Clustering) { c.Assign[1] = 2 }, "assigned to cluster"},
		{"assign-negative", func(c *simpoint.Clustering) { c.Assign[1] = -1 }, "assigned to cluster"},
		{"empty-cluster", func(c *simpoint.Clustering) { c.Assign[1] = 0 }, "empty"},
		{"assign-arity", func(c *simpoint.Clustering) { c.Assign = c.Assign[:2] }, "assignments for"},
		{"weight-sum", func(c *simpoint.Clustering) { c.Weights[0] = 0.7 }, "sum"},
		{"weight-negative", func(c *simpoint.Clustering) { c.Weights = []float64{1.5, -0.5} }, "weight"},
		{"weight-arity", func(c *simpoint.Clustering) { c.Weights = c.Weights[:1] }, "weights for"},
		{"bad-k", func(c *simpoint.Clustering) { c.K = 0 }, "K=0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := valid()
			tc.corrupt(c)
			if err := Clustering(c, 3); err == nil {
				t.Fatal("violation not caught")
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want mention of %q", err, tc.want)
			}
		})
	}
	// numPoints == 0 is the documented degenerate pass.
	if err := Clustering(&simpoint.Clustering{}, 0); err != nil {
		t.Fatalf("degenerate empty clustering rejected: %v", err)
	}
}

// TestCrossBinaryCatchesWrongTrace pairs the reference binary with
// sources whose builds behave differently, proving the differential
// comparison actually discriminates rather than vacuously passing: one
// computes different output (an extra out call), the other the same
// output with an extra unmarked call whose loop markers fire more.
func TestCrossBinaryCatchesWrongTrace(t *testing.T) {
	prog, set := phasedSetup(t)
	for _, tc := range []struct{ old, new, want string }{
		{"out(s);", "out(s); out(r);", "cross-binary: optimized: out() stream differs"},
		{"s = s + stretch(n);", "s = s + stretch(n); var z = stretch(n);", "cross-binary: optimized: marker trace diverges from -O0 at firing"},
	} {
		divergent := strings.Replace(phasedSrc, tc.old, tc.new, 1)
		if divergent == phasedSrc {
			t.Fatal("replacement failed")
		}
		err := CrossBinary(divergent, prog, set, phasedArgs...)
		if err == nil {
			t.Fatalf("oracle accepted binaries from a source with %q", tc.new)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("got %v, want mention of %q", err, tc.want)
		}
	}
}
