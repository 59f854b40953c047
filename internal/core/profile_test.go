package core

import "testing"

// TestProfileAllocsIndependentOfCalls pins that a profiling run allocates
// per graph element and per setup, never per call: callLoopProgram's hot
// loop calls a procedure containing a loop, and running it 32x as often
// must leave the allocation count nearly unchanged. The loop tracker used
// to push a fresh frame per call, so the first loop entered in every
// callee allocated its active-loop stack.
func TestProfileAllocsIndependentOfCalls(t *testing.T) {
	prog := mustCompile(t, callLoopProgram, false)
	run := func(reps int64) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := ProfileRun(prog, reps, 4); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := run(64), run(2048)
	if long > short+128 {
		t.Fatalf("allocations scale with calls: 64 calls -> %.0f allocs, 2048 calls -> %.0f allocs", short, long)
	}
}
