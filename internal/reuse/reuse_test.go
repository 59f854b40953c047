package reuse

import (
	"testing"

	"phasemark/internal/compile"
	"phasemark/internal/minivm"
	"phasemark/internal/stats"
)

// Property: Distances matches an explicit LRU stack at every access, on
// streams over few and many distinct blocks that run out of times and
// compact the tree several times.
func TestDistancesMatchNaive(t *testing.T) {
	for _, blocks := range []int{1, 3, 40, 1500} {
		for seed := uint64(1); seed <= 3; seed++ {
			r := stats.NewRNG(seed<<16 | uint64(blocks))
			d := NewDistances(64)
			var stack []uint64 // MRU first
			compactions := 0
			for n := 0; n < 20_000; n++ {
				// Skewed towards low block numbers, so distances range
				// from 0 to the whole footprint.
				blk := uint64(r.Intn(r.Intn(blocks) + 1))
				want, wantCold := 0, true
				for i, b := range stack {
					if b == blk {
						want, wantCold = i, false
						stack = append(stack[:i], stack[i+1:]...)
						break
					}
				}
				stack = append([]uint64{blk}, stack...)
				before := d.now
				dist, cold := d.Access(blk*64 + uint64(r.Intn(64)))
				if d.now <= before {
					compactions++
				}
				if dist != want || cold != wantCold || d.Distinct() != len(stack) {
					t.Fatalf("%d blocks, seed %d, access %d (block %d): got dist %d cold %v distinct %d, want %d %v %d",
						blocks, seed, n, blk, dist, cold, d.Distinct(), want, wantCold, len(stack))
				}
			}
			if compactions < 3 {
				t.Fatalf("%d blocks, seed %d: %d compactions, want several", blocks, seed, compactions)
			}
		}
	}
}

func TestStackDistanceKnownSequence(t *testing.T) {
	d := NewDistances(64) // block = 64 bytes
	addr := func(blk uint64) uint64 { return blk * 64 }
	if dist, cold := d.Access(addr(1)); !cold || dist != 0 {
		t.Fatalf("first access: dist=%d cold=%v", dist, cold)
	}
	d.Access(addr(2))
	d.Access(addr(3))
	// Re-access 1: blocks 2 and 3 touched since -> distance 2.
	if dist, cold := d.Access(addr(1)); cold || dist != 2 {
		t.Fatalf("reuse distance = %d (cold=%v), want 2", dist, cold)
	}
	// Immediately re-access 1: distance 0.
	if dist, _ := d.Access(addr(1)); dist != 0 {
		t.Fatalf("immediate reuse = %d, want 0", dist)
	}
	// Same block, different word: still block 1.
	if dist, cold := d.Access(addr(1) + 8); cold || dist != 0 {
		t.Fatalf("same-block access: dist=%d cold=%v", dist, cold)
	}
	if d.Distinct() != 3 {
		t.Fatalf("distinct = %d", d.Distinct())
	}
}

// Property: for a cyclic sweep over N blocks, steady-state reuse distance
// is exactly N-1 for every access.
func TestStackDistanceCyclicSweep(t *testing.T) {
	d := NewDistances(64)
	const n = 50
	for pass := 0; pass < 4; pass++ {
		for b := uint64(0); b < n; b++ {
			dist, cold := d.Access(b * 64)
			if pass == 0 {
				if !cold {
					t.Fatal("first pass must be cold")
				}
				continue
			}
			if cold || dist != n-1 {
				t.Fatalf("pass %d block %d: dist=%d, want %d", pass, b, dist, n-1)
			}
		}
	}
}

func TestHaarSmoothPreservesMeanAndFlattens(t *testing.T) {
	x := []float64{0, 0, 0, 0, 10, 10, 10, 10}
	s := HaarSmooth(x, 1)
	if len(s) != len(x) {
		t.Fatalf("length changed: %d", len(s))
	}
	var mx, ms float64
	for i := range x {
		mx += x[i]
		ms += s[i]
	}
	if mx != ms {
		t.Fatalf("mean not preserved: %v vs %v", mx, ms)
	}
	// Full smoothing flattens to the global mean.
	flat := HaarSmooth(x, 10)
	for _, v := range flat {
		if v != 5 {
			t.Fatalf("fully smoothed = %v, want all 5", flat)
		}
	}
}

func TestBoundariesDetectSteps(t *testing.T) {
	sig := make([]float64, 100)
	for i := 50; i < 100; i++ {
		sig[i] = 10
	}
	b := Boundaries(sig, 0.5, 4)
	if len(b) != 1 || b[0] != 50 {
		t.Fatalf("boundaries = %v, want [50]", b)
	}
	// Flat signal: none.
	if b := Boundaries(make([]float64, 50), 0.1, 4); len(b) != 0 {
		t.Fatalf("flat signal boundaries = %v", b)
	}
	// minGap suppresses rapid re-triggers.
	saw := []float64{0, 10, 0, 10, 0, 10, 0, 10}
	if b := Boundaries(saw, 0.5, 100); len(b) != 1 {
		t.Fatalf("minGap violated: %v", b)
	}
}

const phasedSrc = `
array big[32768];
array small[512];
proc streamy(n) {
	var s = 0;
	for (var i = 0; i < n; i = i + 1) { s = s + big[(i * 3) & 32767]; }
	return s;
}
proc tight(n) {
	var s = 0;
	for (var i = 0; i < n; i = i + 1) { s = s + small[i & 511]; }
	return s;
}
proc main(reps, n) {
	var s = 0;
	for (var r = 0; r < reps; r = r + 1) { s = s + streamy(n) + tight(n); }
	out(s);
	return s;
}
`

func TestSelectFindsLocalityMarkers(t *testing.T) {
	prog, err := compile.CompileSource(phasedSrc, compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mk, err := Select(prog, []int64{8, 60_000})
	if err != nil {
		t.Fatal(err)
	}
	if mk.Boundaries == 0 {
		t.Fatal("no locality boundaries found in a strongly phased program")
	}
	if len(mk.Blocks) == 0 {
		t.Fatal("no reuse markers selected")
	}
	if mk.Covered == 0 {
		t.Fatal("markers cover no boundaries")
	}

	// The detector must fire on a different input, scaled with reps.
	det := NewDetector(mk, nil)
	m := minivm.NewMachine(prog, det)
	if _, err := m.Run(16, 60_000); err != nil {
		t.Fatal(err)
	}
	if det.Fired() == 0 {
		t.Fatal("reuse markers never fired")
	}
}

func TestDetectorRefractoryGap(t *testing.T) {
	prog, err := compile.CompileSource(phasedSrc, compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Mark the entry block with a huge refractory gap: exactly one firing.
	mk := &Markers{Blocks: []int{prog.EntryProc().Blocks[0].ID}, MinGap: 1 << 60}
	det := NewDetector(mk, nil)
	m := minivm.NewMachine(prog, det)
	if _, err := m.Run(4, 10_000); err != nil {
		t.Fatal(err)
	}
	if det.Fired() != 1 {
		t.Fatalf("fired %d times, want 1", det.Fired())
	}
}
