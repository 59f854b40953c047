package trace

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"phasemark/internal/compile"
	"phasemark/internal/minivm"
	"phasemark/internal/uarch"
)

// streamRun runs cfg in streaming mode and returns the flattened
// interval stream (deep-copied) plus the result.
func streamRun(t *testing.T, cfg Config) ([]Interval, *Result) {
	t.Helper()
	var got []Interval
	cfg.Sink = func(chunk []Interval) error {
		if cfg.ChunkSize > 0 && len(chunk) > cfg.ChunkSize {
			t.Errorf("chunk of %d exceeds ChunkSize %d", len(chunk), cfg.ChunkSize)
		}
		got = append(got, copyIntervals(chunk)...)
		return nil
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return got, res
}

// equalStreams asserts two flattened streams are identical in every
// field, including each BBV entry — the engine's bit-identity contract.
func equalStreams(t *testing.T, got, want []Interval, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d intervals, serial stream has %d", label, len(got), len(want))
	}
	for i := range got {
		g, w := &got[i], &want[i]
		if g.Index != w.Index || g.Start != w.Start || g.End != w.End ||
			g.PhaseID != w.PhaseID || g.Perf != w.Perf {
			t.Fatalf("%s: interval %d differs: %+v vs %+v", label, i, *g, *w)
		}
		if len(g.BBV.Idx) != len(w.BBV.Idx) {
			t.Fatalf("%s: interval %d BBV size differs", label, i)
		}
		for j := range g.BBV.Idx {
			if g.BBV.Idx[j] != w.BBV.Idx[j] || g.BBV.Val[j] != w.BBV.Val[j] {
				t.Fatalf("%s: interval %d BBV entry %d differs", label, i, j)
			}
		}
	}
}

// The record/replay split must produce a byte-identical interval stream
// and identical totals at every worker count and chunk size, in both
// cutting modes, against the serial stream (Workers 1). Run under -race
// this also exercises the split's ring for data races.
func TestEngineParallelDeterminism(t *testing.T) {
	for _, mode := range []string{"marker", "fixed"} {
		t.Run(mode, func(t *testing.T) {
			base, _ := compileAndMark(t, 50_000)
			if mode == "fixed" {
				base.Markers = nil
				base.FixedLen = 20_000
			}
			for _, chunk := range []int{1, 7, 256} {
				ref := *base
				ref.ChunkSize = chunk
				ref.Workers = 1
				want, wantRes := streamRun(t, ref)
				if len(want) < 3 {
					t.Fatalf("chunk %d: reference stream has only %d intervals", chunk, len(want))
				}
				for _, workers := range []int{2, 4, 16} {
					par := *base
					par.ChunkSize = chunk
					par.Workers = workers
					got, res := streamRun(t, par)
					label := fmt.Sprintf("chunk=%d workers=%d", chunk, workers)
					equalStreams(t, got, want, label)
					if res.Instructions != wantRes.Instructions || res.Total != wantRes.Total ||
						res.MarkerFires != wantRes.MarkerFires || res.NumBlocks != wantRes.NumBlocks {
						t.Fatalf("%s: totals differ: %+v vs %+v", label, res, wantRes)
					}
					if res.Intervals != nil {
						t.Fatalf("%s: engine run materialized intervals", label)
					}
				}
			}
		})
	}
}

// eventCount counts a run's block, branch and memory events: the words
// the split records for a fixed-cut analysis stack.
type eventCount struct {
	minivm.NopObserver
	n int
}

func (c *eventCount) OnBlock(*minivm.Block)        { c.n++ }
func (c *eventCount) OnBranch(*minivm.Block, bool) { c.n++ }
func (c *eventCount) OnMem(uint64, bool)           { c.n++ }

// splitRingWords is the event capacity of the split's ring: minivm's
// splitRingBufs buffers of splitBufWords words.
const splitRingWords = 3 * 32_768

// Workers 0 resolves to GOMAXPROCS and 1 to the serial path, and a
// materializing run on the split equals the serial one bit for bit, BBVs
// included, at every worker count, in both cutting modes. CI runs it
// with -cpu 1,4,8 so the default lands on each side of the choice.
func TestEngineMaterializing(t *testing.T) {
	t.Run("default", func(t *testing.T) {
		cfg, _ := compileAndMark(t, 50_000)
		cfg.Markers, cfg.FixedLen, cfg.ChunkSize = nil, 5_000, 1
		cfg.Args = []int64{2, 20000}
		var ev eventCount
		if _, err := minivm.NewMachine(cfg.Prog, &ev).Run(cfg.Args...); err != nil {
			t.Fatal(err)
		}
		if ev.n <= splitRingWords {
			t.Fatalf("run has %d events, want more than the split's ring holds (%d)", ev.n, splitRingWords)
		}
		t.Logf("run has %d events; the split's ring holds %d", ev.n, splitRingWords)
		for _, workers := range []int{0, 1} {
			// The first chunk reaches the sink while the first buffer
			// replays (5,000 instructions record well under one
			// buffer's 32,768 event words), and the producer cannot
			// ship a fourth buffer before that one is replayed and
			// freed. With more events than the ring holds it cannot
			// have finished then, so, whatever the timing, the
			// goroutines alive beside the caller are exactly the
			// split's producer, and none on the serial path.
			want := 0
			if workers == 0 && runtime.GOMAXPROCS(0) > 1 {
				want = 1
			}
			c := *cfg
			c.Workers = workers
			base, got := runtime.NumGoroutine(), -1
			c.Sink = func([]Interval) error {
				if got < 0 {
					got = runtime.NumGoroutine() - base
				}
				return nil
			}
			if _, err := Run(c); err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("Workers %d at GOMAXPROCS %d: %d goroutines beside the caller's, want %d",
					workers, runtime.GOMAXPROCS(0), got, want)
			}
		}
	})
	for _, mode := range []string{"marker", "fixed"} {
		t.Run(mode, func(t *testing.T) {
			cfg, _ := compileAndMark(t, 50_000)
			cfg.Args = []int64{3, 20000}
			if mode == "fixed" {
				cfg.Markers, cfg.FixedLen = nil, 20_000
			}
			// A materializing run ignores ChunkSize at every worker
			// count, so a small one must change nothing.
			cfg.ChunkSize, cfg.Workers = 2, 1
			want, err := Run(*cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(want.Intervals) < 3 {
				t.Fatalf("serial run has only %d intervals", len(want.Intervals))
			}
			for _, workers := range []int{2, 4, 16} {
				cfg.Workers = workers
				got, err := Run(*cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("workers=%d: materialized result differs from the serial run", workers)
				}
			}
		})
	}
}

// leakWindow is how long a test waits for the goroutine count to return
// to its pre-run baseline after Run returns.
const leakWindow = 50 * time.Millisecond

// waitGoroutines fails the test unless the goroutine count is back at
// base within leakWindow.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(leakWindow)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines running %v after Run returned, baseline %d",
				runtime.NumGoroutine(), leakWindow, base)
		}
		time.Sleep(time.Millisecond)
	}
}

// Run must not return while the split's producer is still interpreting.
// The program is sized so one execution clearly outlasts the poll
// window: a producer left running after the sink error would still be
// counted.
func TestEngineJoinsWorkersOnError(t *testing.T) {
	cfg, _ := compileAndMark(t, 50_000)
	var run time.Duration
	for cfg.Args[0] = 20; ; cfg.Args[0] *= 2 {
		start := time.Now()
		if _, err := Run(*cfg); err != nil {
			t.Fatal(err)
		}
		if run = time.Since(start); run >= 4*leakWindow {
			break
		}
	}
	t.Logf("one execution (args %v) takes %v; poll window %v", cfg.Args, run, leakWindow)

	sentinel := errors.New("sink full")
	cfg.Workers, cfg.ChunkSize = 4, 2
	cfg.Sink = func([]Interval) error { return sentinel }
	base := runtime.NumGoroutine()
	if _, err := Run(*cfg); !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the sink's error", err)
	}
	waitGoroutines(t, base)
}

// Fault-injection sweep: a sink failing at chunk k — first, second,
// middle, or last — must abort the run in every regime (serial, split)
// and cutting mode: its error is returned, it is never called again, and
// no goroutine outlives Run.
func TestEngineSinkError(t *testing.T) {
	sentinel := errors.New("sink full")
	marked, _ := compileAndMark(t, 50_000)
	marked.Args = []int64{1, 10000}
	// One execution per run; the subtest keeps the name it had when Run
	// could also tile repetitions.
	t.Run("scale1", func(t *testing.T) {
		for _, mode := range []string{"marker", "fixed"} {
			for _, workers := range []int{0, 1, 4, 16} {
				cfg := *marked
				if mode == "fixed" {
					cfg.Markers = nil
					cfg.FixedLen = 25_000
				}
				cfg.Workers, cfg.ChunkSize = workers, 1
				var n int
				cfg.Sink = func([]Interval) error { n++; return nil }
				if _, err := Run(cfg); err != nil {
					t.Fatal(err)
				}
				if n < 4 {
					t.Fatalf("%s workers=%d: only %d chunks", mode, workers, n)
				}
				for _, k := range []int{0, 1, n / 2, n - 1} {
					label := fmt.Sprintf("%s workers=%d k=%d/%d", mode, workers, k, n)
					calls := 0
					cfg.Sink = func([]Interval) error {
						calls++
						if calls > k {
							return sentinel
						}
						return nil
					}
					base := runtime.NumGoroutine()
					if _, err := Run(cfg); !errors.Is(err, sentinel) {
						t.Fatalf("%s: err = %v, want the sink's error", label, err)
					}
					if calls != k+1 {
						t.Fatalf("%s: sink called %d times, want %d", label, calls, k+1)
					}
					waitGoroutines(t, base)
				}
			}
		}
	})
}

// A sink panic propagates to Run's caller unrecovered, in every regime,
// and only after Run has joined the goroutines it started.
func TestEngineSinkPanic(t *testing.T) {
	for _, rc := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"split", 4}} {
		t.Run(rc.name, func(t *testing.T) {
			cfg, _ := compileAndMark(t, 50_000)
			cfg.Args = []int64{2, 20000}
			cfg.Workers, cfg.ChunkSize = rc.workers, 2
			calls := 0
			cfg.Sink = func([]Interval) error {
				if calls++; calls == 2 {
					panic("sink panic")
				}
				return nil
			}
			base := runtime.NumGoroutine()
			func() {
				defer func() {
					if r := recover(); r != "sink panic" {
						t.Fatalf("recovered %v, want the sink's panic", r)
					}
				}()
				Run(*cfg)
			}()
			waitGoroutines(t, base)
		})
	}
}

// Negative Workers is a configuration error, not a clamp.
func TestEngineWorkersValidation(t *testing.T) {
	cfg, _ := compileAndMark(t, 50_000)
	cfg.Workers = -1
	cfg.Sink = func([]Interval) error { return nil }
	if _, err := Run(*cfg); err == nil || !strings.Contains(err.Error(), "Workers") {
		t.Fatalf("err = %v, want negative-Workers error", err)
	}
}

// synthMetricChunk builds n deterministic intervals with nontrivial
// Perf counters and a few distinct phases.
func synthMetricChunk(n int) []Interval {
	out := make([]Interval, n)
	var at uint64
	for i := range out {
		ln := uint64(100 + i%7*13)
		out[i] = Interval{
			Index: i, Start: at, End: at + ln, PhaseID: i % 3,
			Perf: uarch.Counters{Instrs: ln, Cycles: ln + uint64(i%5)*10,
				L1Acc: ln / 2, L1Miss: uint64(i % 9)},
		}
		at += ln
	}
	return out
}

// CoVAccumulator.ObserveChunk must be allocation-free per chunk once
// every phase has been seen: the streaming engine calls it once per
// delivered chunk for the whole trace.
func TestCoVObserveChunkSteadyStateAllocs(t *testing.T) {
	chunk := synthMetricChunk(257)
	a := NewCoVAccumulator(IntervalPhase, CPIMetric)
	a.ObserveChunk(chunk) // all phases seen
	if allocs := testing.AllocsPerRun(100, func() {
		a.ObserveChunk(chunk)
	}); allocs != 0 {
		t.Fatalf("steady-state ObserveChunk allocates %v per chunk, want 0", allocs)
	}
}

// An invalid program is an error wrapping minivm.ErrInvalidProgram on
// every path, never a panic: Run validates before it sizes the timing
// model's predictor, the BBV accumulator or the detector's tables from
// NumBlocks.
func TestTraceRejectsInvalidProgram(t *testing.T) {
	cfg, _ := compileAndMark(t, 50_000)
	bad := *cfg.Prog
	bad.NumBlocks = -1
	cfg.Prog = &bad
	for _, workers := range []int{1, 2} {
		c := *cfg
		c.Workers = workers
		if _, err := Run(c); !errors.Is(err, minivm.ErrInvalidProgram) {
			t.Errorf("workers %d: err = %v, want ErrInvalidProgram", workers, err)
		}
	}
}

// divSrc runs reps rounds of work, then divides by zero.
const divSrc = `
array a[1024];
proc work(n) {
	var s = 0;
	for (var i = 0; i < n; i = i + 1) { s = s + a[i & 1023] + i; }
	return s;
}
proc main(reps, n) {
	var s = 0;
	var d = reps;
	for (var r = 0; r < reps; r = r + 1) { s = s + work(n); d = d - 1; }
	return s / d;
}
`

// A run whose execution fails after its sink has already failed returns
// the execution's error: a failed execution comes before a sink error,
// on the serial machine and on the record/replay split.
func TestRunErrorPrecedence(t *testing.T) {
	prog, err := compile.CompileSource(divSrc, compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sentinel := errors.New("sink full")
	for _, workers := range []int{1, 2} {
		calls := 0
		cfg := Config{
			Prog: prog, Args: []int64{20, 5000}, FixedLen: 10_000, ChunkSize: 1, Workers: workers,
			Sink: func([]Interval) error { calls++; return sentinel },
		}
		_, err := Run(cfg)
		if !errors.Is(err, minivm.ErrDivByZero) || errors.Is(err, sentinel) {
			t.Errorf("workers %d: err = %v, want the execution's division by zero", workers, err)
		}
		if calls != 1 {
			t.Errorf("workers %d: sink called %d times, want 1", workers, calls)
		}
	}
}

// A failed execution reaches the sink as it does on the serial path, at
// every worker count: its full chunks, never the partial one its
// collector had not flushed, then its error.
func TestFailedRunStream(t *testing.T) {
	prog, err := compile.CompileSource(divSrc, compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []int{1, 3, 7} {
		var want []Interval
		for _, workers := range []int{1, 2, 4} {
			var got []Interval
			cfg := Config{
				Prog: prog, Args: []int64{20, 5000}, FixedLen: 10_000, ChunkSize: chunk, Workers: workers,
				Sink: func(c []Interval) error { got = append(got, copyIntervals(c)...); return nil },
			}
			label := fmt.Sprintf("chunk %d workers %d", chunk, workers)
			if _, err := Run(cfg); !errors.Is(err, minivm.ErrDivByZero) {
				t.Fatalf("%s: err = %v, want the execution's division by zero", label, err)
			}
			if workers == 1 {
				if len(got) < 2*chunk || len(got)%chunk != 0 {
					t.Fatalf("%s: serial path delivered %d intervals, want whole chunks", label, len(got))
				}
				want = got
				continue
			}
			equalStreams(t, got, want, label)
		}
	}
}
