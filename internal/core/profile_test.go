package core

import (
	"errors"
	"testing"

	"phasemark/internal/minivm"
	"phasemark/internal/workloads"
)

// TestProfileAllocsIndependentOfCalls pins that a profiling run allocates
// per graph element and per setup, never per call: callLoopProgram's hot
// loop calls a procedure containing a loop, and running it 32x as often
// must leave the allocation count nearly unchanged. The loop tracker used
// to push a fresh frame per call, so the first loop entered in every
// callee allocated its active-loop stack. Both profiling paths are
// measured (workers 1 and 2): AllocsPerRun runs at GOMAXPROCS 1, where
// ProfileRun itself would always take the serial machine.
func TestProfileAllocsIndependentOfCalls(t *testing.T) {
	prog := mustCompile(t, callLoopProgram, false)
	for _, workers := range []int{1, 2} {
		run := func(reps int64) float64 {
			return testing.AllocsPerRun(5, func() {
				if _, err := ProfileRunWorkers(prog, workers, reps, 4); err != nil {
					t.Fatal(err)
				}
			})
		}
		short, long := run(64), run(2048)
		if long > short+128 {
			t.Fatalf("workers %d: allocations scale with calls: 64 calls -> %.0f allocs, 2048 calls -> %.0f allocs", workers, short, long)
		}
	}
}

// TestProfileSplitMatchesSerial pins ProfileRunWorkers' two paths to
// each other at any GOMAXPROCS: on every workload's train input, the
// graph the profiler builds from the record/replay split's replay
// (workers 2) equals the one it builds observing the machine directly
// (workers 1), node and edge creation order, In/Out order and Welford
// float bits included. With TestProfileGraphGolden, which profiles at
// whatever GOMAXPROCS the test runs, this pins both paths to the golden.
func TestProfileSplitMatchesSerial(t *testing.T) {
	for _, w := range workloads.All() {
		prog := w.MustCompile(false)
		var dumps [2]string
		for i, workers := range []int{1, 2} {
			g, err := ProfileRunWorkers(prog, workers, w.Train...)
			if err != nil {
				t.Fatalf("%s workers %d: %v", w.Name, workers, err)
			}
			dumps[i] = dumpGraph(g)
		}
		if d := lineDiff(dumps[1], dumps[0]); d != "" {
			t.Errorf("%s: the split's graph differs from the serial machine's: %s", w.Name, d)
		}
	}
}

// TestProfileRunWorkersRejectsNegative pins trace.Config.Workers' rule
// for a negative count: an error, not a silent serial run.
func TestProfileRunWorkersRejectsNegative(t *testing.T) {
	prog := mustCompile(t, callLoopProgram, false)
	if _, err := ProfileRunWorkers(prog, -1, 4, 4); err == nil {
		t.Fatal("workers -1: got nil error")
	}
}

// An invalid program is an error wrapping minivm.ErrInvalidProgram, never
// a panic: the profiler and the detector size their tables from
// NumBlocks, so ProfileRunWorkers (on both paths) and DetectFirings
// validate before building them.
func TestProfileRejectsInvalidProgram(t *testing.T) {
	w, err := workloads.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	bad := *w.MustCompile(false)
	bad.NumBlocks = -1
	for _, workers := range []int{1, 2} {
		if _, err := ProfileRunWorkers(&bad, workers, w.Train...); !errors.Is(err, minivm.ErrInvalidProgram) {
			t.Errorf("ProfileRunWorkers %d: err = %v, want ErrInvalidProgram", workers, err)
		}
	}
	if _, _, _, err := DetectFirings(&bad, &MarkerSet{}, w.Train...); !errors.Is(err, minivm.ErrInvalidProgram) {
		t.Errorf("DetectFirings: err = %v, want ErrInvalidProgram", err)
	}
}
