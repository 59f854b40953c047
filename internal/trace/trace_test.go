package trace

import (
	"fmt"
	"strings"
	"testing"

	"phasemark/internal/bbv"
	"phasemark/internal/compile"
	"phasemark/internal/core"
	"phasemark/internal/uarch"
)

const twoPhaseSrc = `
array big[32768];
array small[1024];
proc hot(n) {
	var s = 0;
	for (var i = 0; i < n; i = i + 1) { s = s + big[(i * 17) & 32767]; }
	return s;
}
proc cold(n) {
	var s = 0;
	for (var i = 0; i < n; i = i + 1) { s = s + small[i & 1023]; }
	return s;
}
proc main(reps, n) {
	var s = 0;
	for (var r = 0; r < reps; r = r + 1) { s = s + hot(n) + cold(n); }
	out(s);
	return s;
}
`

func compileAndMark(t *testing.T, ilower uint64) (*Config, *core.MarkerSet) {
	t.Helper()
	prog, err := compile.CompileSource(twoPhaseSrc, compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	g, err := core.ProfileRun(prog, 10, 20000)
	if err != nil {
		t.Fatal(err)
	}
	set := core.SelectMarkers(g, core.SelectOptions{ILower: ilower})
	cfg := &Config{Prog: prog, Args: []int64{10, 20000}, CPU: uarch.DefaultConfig(), Markers: set}
	return cfg, set
}

func TestFixedIntervalsCoverExecution(t *testing.T) {
	cfg, _ := compileAndMark(t, 50_000)
	cfg.Markers = nil
	cfg.FixedLen = 100_000
	res, err := Run(*cfg)
	if err != nil {
		t.Fatal(err)
	}
	var total uint64
	prevEnd := uint64(0)
	for _, iv := range res.Intervals {
		if iv.Start != prevEnd {
			t.Fatalf("interval %d starts at %d, previous ended at %d", iv.Index, iv.Start, prevEnd)
		}
		prevEnd = iv.End
		total += iv.Len()
	}
	if total != res.Instructions {
		t.Fatalf("intervals cover %d of %d instructions", total, res.Instructions)
	}
	// Fixed intervals are approximately FixedLen: the cutter keeps the
	// grid (next += step), so one interval may undershoot after the
	// previous one overshot by a block.
	for _, iv := range res.Intervals[:len(res.Intervals)-1] {
		if iv.Len() < 99_000 || iv.Len() > 101_000 {
			t.Fatalf("interval %d length %d not ~100k", iv.Index, iv.Len())
		}
	}
}

func TestPerfCountersSumToTotal(t *testing.T) {
	cfg, _ := compileAndMark(t, 50_000)
	res, err := Run(*cfg)
	if err != nil {
		t.Fatal(err)
	}
	var cyc, ins, acc, miss uint64
	for _, iv := range res.Intervals {
		cyc += iv.Perf.Cycles
		ins += iv.Perf.Instrs
		acc += iv.Perf.L1Acc
		miss += iv.Perf.L1Miss
	}
	if cyc != res.Total.Cycles || ins != res.Total.Instrs ||
		acc != res.Total.L1Acc || miss != res.Total.L1Miss {
		t.Fatalf("per-interval counters don't sum to totals")
	}
}

func TestBBVMassMatchesIntervalLength(t *testing.T) {
	cfg, _ := compileAndMark(t, 50_000)
	res, err := Run(*cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, iv := range res.Intervals {
		if got, want := iv.BBV.L1(), float64(iv.Len()); got != want {
			t.Fatalf("interval %d: BBV mass %v != length %v", iv.Index, got, want)
		}
	}
}

func TestMarkerPhasesSeparateBehavior(t *testing.T) {
	cfg, set := compileAndMark(t, 50_000)
	if len(set.Markers) == 0 {
		t.Fatal("no markers")
	}
	res, err := Run(*cfg)
	if err != nil {
		t.Fatal(err)
	}
	cov := PhaseCoV(res.Intervals, IntervalPhase, CPIMetric)
	whole := WholeProgramCoV(res.Intervals, CPIMetric)
	if cov.CoV >= whole {
		t.Fatalf("phase classification (%v) must beat whole-program (%v)", cov.CoV, whole)
	}
	if cov.Phases < 2 {
		t.Fatalf("phases = %d", cov.Phases)
	}
}

func TestPhaseCoVWeighting(t *testing.T) {
	// Two intervals in one phase with different CPI: longer interval
	// dominates the weighted mean.
	ivs := []*Interval{
		{Start: 0, End: 1000, PhaseID: 1, Perf: uarch.Counters{Instrs: 1000, Cycles: 1000}},
		{Start: 1000, End: 10_000, PhaseID: 1, Perf: uarch.Counters{Instrs: 9000, Cycles: 27_000}},
	}
	r := PhaseCoV(ivs, IntervalPhase, CPIMetric)
	// Weighted mean = (1*0.1 + 3*0.9) = 2.8; std = sqrt(0.09*4) = 0.6.
	if r.Phases != 1 || r.Intervals != 2 {
		t.Fatalf("%+v", r)
	}
	if r.CoV < 0.2 || r.CoV > 0.22 {
		t.Fatalf("CoV = %v, want ~0.214", r.CoV)
	}
	// Same CPI everywhere: zero CoV.
	same := []*Interval{
		{End: 100, PhaseID: 0, Perf: uarch.Counters{Instrs: 100, Cycles: 200}},
		{Start: 100, End: 300, PhaseID: 0, Perf: uarch.Counters{Instrs: 200, Cycles: 400}},
	}
	if r := PhaseCoV(same, IntervalPhase, CPIMetric); r.CoV != 0 {
		t.Fatalf("constant CPI CoV = %v", r.CoV)
	}
}

// A program ending exactly on a marker firing: the final close arrives
// at the same instant as the last firing, and the same-instant dedup
// must swallow it rather than record a zero-length interval. Exercised
// at the collector level because structurally a firing and program end
// cannot coincide through the machine (every edge open is followed by at
// least one block), yet the collector must stay safe if they ever do.
func TestCutDedupAtExactEnd(t *testing.T) {
	cfg, _ := compileAndMark(t, 50_000)
	cpu := uarch.NewCPU(uarch.DefaultConfig(), cfg.Prog)
	col := &collector{cpu: cpu, skipBBV: true, curPhase: ProloguePhase}

	col.cut(2, 100)             // marker 2 fires at instruction 100
	col.cut(ProloguePhase, 100) // program ends at the same instant
	if len(col.intervals) != 1 {
		t.Fatalf("%d intervals, want 1 (no zero-length interval at coincident end)", len(col.intervals))
	}
	iv := col.intervals[0]
	if iv.Start != 0 || iv.End != 100 || iv.PhaseID != ProloguePhase {
		t.Fatalf("interval %+v, want [0,100) prologue", *iv)
	}
}

// The single-pass accumulator, streamed in chunks, must agree with the
// materialized PhaseCoV.
func TestCoVAccumulatorMatchesPhaseCoV(t *testing.T) {
	cfg, _ := compileAndMark(t, 50_000)
	res, err := Run(*cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := PhaseCoV(res.Intervals, IntervalPhase, CPIMetric)

	// Chunked observation.
	acc := NewCoVAccumulator(IntervalPhase, CPIMetric)
	chunk := make([]Interval, 0, 3)
	for _, iv := range res.Intervals {
		chunk = append(chunk, *iv)
		if len(chunk) == cap(chunk) {
			acc.ObserveChunk(chunk)
			chunk = chunk[:0]
		}
	}
	acc.ObserveChunk(chunk)
	if got := acc.Result(); got != want {
		t.Fatalf("chunked accumulation %+v != materialized %+v", got, want)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Error("nil program accepted")
	}
	cfg, _ := compileAndMark(t, 50_000)
	cfg.Markers = nil
	if _, err := Run(*cfg); err == nil {
		t.Error("missing boundary source accepted")
	}
}

// copyIntervals deep-copies a streamed chunk (the tracer recycles chunk
// and BBV storage after the sink returns).
func copyIntervals(chunk []Interval) []Interval {
	out := make([]Interval, len(chunk))
	for i, iv := range chunk {
		out[i] = iv
		out[i].BBV = bbv.Vector{
			Idx: append([]int32(nil), iv.BBV.Idx...),
			Val: append([]float64(nil), iv.BBV.Val...),
		}
	}
	return out
}

func sameIntervals(t *testing.T, got []Interval, want []*Interval) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("streamed %d intervals, materialized %d", len(got), len(want))
	}
	for i := range got {
		g, w := &got[i], want[i]
		if g.Index != w.Index || g.Start != w.Start || g.End != w.End ||
			g.PhaseID != w.PhaseID || g.Perf != w.Perf {
			t.Fatalf("interval %d differs: streamed %+v, materialized %+v", i, *g, *w)
		}
		if len(g.BBV.Idx) != len(w.BBV.Idx) {
			t.Fatalf("interval %d BBV size differs", i)
		}
		for j := range g.BBV.Idx {
			if g.BBV.Idx[j] != w.BBV.Idx[j] || g.BBV.Val[j] != w.BBV.Val[j] {
				t.Fatalf("interval %d BBV entry %d differs", i, j)
			}
		}
	}
}

// Streaming emission must be observationally identical to materializing:
// same intervals, same BBVs, same totals — in both cutting modes, with a
// chunk size small enough to force many flush/recycle cycles. Both runs
// take the serial path (Workers 1).
func TestStreamingMatchesMaterialized(t *testing.T) {
	for _, mode := range []string{"marker", "fixed"} {
		t.Run(mode, func(t *testing.T) {
			cfg, _ := compileAndMark(t, 50_000)
			if mode == "fixed" {
				cfg.Markers = nil
				cfg.FixedLen = 20_000
			}
			cfg.Workers = 1
			want, err := Run(*cfg)
			if err != nil {
				t.Fatal(err)
			}

			scfg := *cfg
			scfg.ChunkSize = 4
			var got []Interval
			backings := map[*Interval]bool{}
			scfg.Sink = func(chunk []Interval) error {
				if len(chunk) > scfg.ChunkSize {
					t.Errorf("chunk of %d exceeds ChunkSize %d", len(chunk), scfg.ChunkSize)
				}
				backings[&chunk[0]] = true
				got = append(got, copyIntervals(chunk)...)
				return nil
			}
			sres, err := Run(scfg)
			if err != nil {
				t.Fatal(err)
			}
			if sres.Intervals != nil {
				t.Fatal("streaming run materialized intervals")
			}
			if sres.Instructions != want.Instructions || sres.Total != want.Total ||
				sres.MarkerFires != want.MarkerFires || sres.NumBlocks != want.NumBlocks {
				t.Fatalf("streaming totals differ: %+v vs %+v", sres, want)
			}
			sameIntervals(t, got, want.Intervals)
			// Bounded memory, structurally: every chunk was the same
			// recycled arena, not a fresh allocation per flush.
			if len(backings) != 1 {
				t.Fatalf("sink saw %d distinct chunk arenas, want 1 (recycled)", len(backings))
			}
			if len(got) <= scfg.ChunkSize {
				t.Fatalf("only %d intervals: chunk recycling untested", len(got))
			}
		})
	}
}

// A sink error aborts the run and is surfaced by Run.
func TestStreamingSinkError(t *testing.T) {
	cfg, _ := compileAndMark(t, 50_000)
	cfg.ChunkSize = 2
	calls := 0
	cfg.Sink = func(chunk []Interval) error {
		calls++
		return fmt.Errorf("sink full")
	}
	if _, err := Run(*cfg); err == nil || !strings.Contains(err.Error(), "sink full") {
		t.Fatalf("err = %v, want wrapped sink error", err)
	}
	if calls != 1 {
		t.Fatalf("sink called %d times after erroring, want 1", calls)
	}
}

func TestSkipBBV(t *testing.T) {
	cfg, _ := compileAndMark(t, 50_000)
	cfg.SkipBBV = true
	res, err := Run(*cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, iv := range res.Intervals {
		if len(iv.BBV.Idx) != 0 {
			t.Fatal("BBV collected despite SkipBBV")
		}
	}
}
