package trace

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

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

// The pipeline-parallel engine must produce a byte-identical interval
// stream and identical totals at every worker count and chunk size, in
// both cutting modes, at scale 1 (record/replay split) and scale 5
// (rep-parallel workers), against the serial stream (Workers 1). Run
// under -race this also exercises the ring handoffs for data races.
func TestEngineParallelDeterminism(t *testing.T) {
	for _, mode := range []string{"marker", "fixed"} {
		for _, scale := range []int{1, 5} {
			t.Run(fmt.Sprintf("%s/scale%d", mode, scale), func(t *testing.T) {
				base, _ := compileAndMark(t, 50_000)
				if mode == "fixed" {
					base.Markers = nil
					base.FixedLen = 20_000
				}
				base.Scale = scale
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
}

// Workers 0 resolves to GOMAXPROCS and 1 to the serial path, and a
// materializing run on the engine equals the serial one bit for bit,
// BBVs included, at every worker count, in both cutting modes, at scale
// 1 (record/replay split) and scale 5 (rep-parallel workers). CI runs it
// with -cpu 1,4 so the default lands on each side of the choice.
func TestEngineMaterializing(t *testing.T) {
	t.Run("default", func(t *testing.T) {
		cfg, _ := compileAndMark(t, 50_000)
		cfg.Markers, cfg.FixedLen = nil, 5_000
		cfg.Args = []int64{1, 2000}
		cfg.Scale, cfg.ChunkSize = 8, 1
		for _, workers := range []int{0, 1} {
			// The first chunk reaches the sink while every rep worker is
			// still running: worker 0 has yet to close repetition 0, and
			// each other worker has more chunks to ship than its ring
			// holds. So the goroutines alive then are exactly the
			// engine's min(Workers, Scale) rep workers, and none on the
			// serial path.
			want := 0
			if workers == 0 && runtime.GOMAXPROCS(0) > 1 {
				want = min(runtime.GOMAXPROCS(0), cfg.Scale)
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
		for _, scale := range []int{1, 5} {
			t.Run(fmt.Sprintf("%s/scale%d", mode, scale), func(t *testing.T) {
				cfg, _ := compileAndMark(t, 50_000)
				cfg.Args = []int64{3, 20000}
				if mode == "fixed" {
					cfg.Markers, cfg.FixedLen = nil, 20_000
				}
				// Rep workers ship chunks of ChunkSize even when the run
				// materializes; small ones make the reducer hand ring
				// slots back between chunks it keeps.
				cfg.ChunkSize = 2
				cfg.Scale, cfg.Workers = scale, 1
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

// Run must not return while a rep worker is still interpreting. The
// program is sized so one repetition clearly outlasts the poll window:
// a worker left running after the sink error would still be counted.
func TestEngineJoinsWorkersOnError(t *testing.T) {
	cfg, _ := compileAndMark(t, 50_000)
	var rep time.Duration
	for cfg.Args[0] = 20; ; cfg.Args[0] *= 2 {
		start := time.Now()
		if _, err := Run(*cfg); err != nil {
			t.Fatal(err)
		}
		if rep = time.Since(start); rep >= 4*leakWindow {
			break
		}
	}
	t.Logf("one repetition (args %v) takes %v; poll window %v", cfg.Args, rep, leakWindow)

	sentinel := errors.New("sink full")
	cfg.Scale, cfg.Workers, cfg.ChunkSize = 8, 4, 2
	cfg.Sink = func([]Interval) error { return sentinel }
	base := runtime.NumGoroutine()
	if _, err := Run(*cfg); !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the sink's error", err)
	}
	waitGoroutines(t, base)
}

// Fault-injection sweep: a sink failing at chunk k — first, second,
// middle, or last — must abort the run in every regime (serial, split,
// rep-parallel) and cutting mode: its error is returned, it is never
// called again, and no goroutine outlives Run.
func TestEngineSinkError(t *testing.T) {
	sentinel := errors.New("sink full")
	marked, _ := compileAndMark(t, 50_000)
	marked.Args = []int64{1, 10000}
	for _, scale := range []int{1, 5, 8} {
		t.Run(fmt.Sprintf("scale%d", scale), func(t *testing.T) {
			for _, mode := range []string{"marker", "fixed"} {
				for _, workers := range []int{0, 1, 4, 16} {
					cfg := *marked
					if mode == "fixed" {
						cfg.Markers = nil
						cfg.FixedLen = 25_000
					}
					cfg.Scale, cfg.Workers, cfg.ChunkSize = scale, workers, 1
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
}

// A sink panic propagates to Run's caller unrecovered, in every regime,
// and only after Run has joined the goroutines it started.
func TestEngineSinkPanic(t *testing.T) {
	for _, rc := range []struct {
		name           string
		scale, workers int
	}{{"serial", 8, 1}, {"split", 1, 4}, {"reps", 8, 4}} {
		t.Run(rc.name, func(t *testing.T) {
			cfg, _ := compileAndMark(t, 50_000)
			cfg.Args = []int64{2, 20000}
			cfg.Scale, cfg.Workers, cfg.ChunkSize = rc.scale, rc.workers, 2
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

// Scale repetitions are independent cold executions: every repetition
// of a scaled run must reproduce the single run's interval sequence
// exactly (rebased onto its tile), in both cutting modes. This is the
// property that lets repetitions run on any worker in any order.
func TestScaleColdRepetitions(t *testing.T) {
	for _, mode := range []string{"marker", "fixed"} {
		t.Run(mode, func(t *testing.T) {
			cfg, _ := compileAndMark(t, 50_000)
			if mode == "fixed" {
				cfg.Markers = nil
				cfg.FixedLen = 20_000
			}
			single, err := Run(*cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Scale = 3
			amp, err := Run(*cfg)
			if err != nil {
				t.Fatal(err)
			}
			n := len(single.Intervals)
			if len(amp.Intervals) != 3*n {
				t.Fatalf("scaled run has %d intervals, want 3×%d", len(amp.Intervals), n)
			}
			if amp.MarkerFires != 3*single.MarkerFires {
				t.Fatalf("scaled fires %d, want exactly 3×%d", amp.MarkerFires, single.MarkerFires)
			}
			for rep := 0; rep < 3; rep++ {
				instrBase := uint64(rep) * single.Instructions
				for i, w := range single.Intervals {
					g := amp.Intervals[rep*n+i]
					if g.Start != w.Start+instrBase || g.End != w.End+instrBase ||
						g.PhaseID != w.PhaseID || g.Perf != w.Perf {
						t.Fatalf("rep %d interval %d differs from single run: %+v vs %+v",
							rep, i, *g, *w)
					}
				}
			}
		})
	}
}
