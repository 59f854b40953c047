package reuse

import (
	"testing"
	"testing/quick"

	"phasemark/internal/compile"
	"phasemark/internal/minivm"
	"phasemark/internal/stats"
)

func TestTreapOrderStatistics(t *testing.T) {
	tr := newTreap(1)
	for k := uint64(1); k <= 100; k++ {
		tr.Insert(k)
	}
	if tr.Len() != 100 {
		t.Fatalf("len = %d", tr.Len())
	}
	if got := tr.CountGreater(90); got != 10 {
		t.Fatalf("CountGreater(90) = %d", got)
	}
	if got := tr.CountGreater(0); got != 100 {
		t.Fatalf("CountGreater(0) = %d", got)
	}
	if got := tr.CountGreater(100); got != 0 {
		t.Fatalf("CountGreater(100) = %d", got)
	}
	if !tr.Delete(50) {
		t.Fatal("delete existing failed")
	}
	if tr.Delete(50) {
		t.Fatal("double delete succeeded")
	}
	if got := tr.CountGreater(40); got != 59 {
		t.Fatalf("after delete, CountGreater(40) = %d", got)
	}
}

// Property: treap CountGreater matches a naive slice implementation under
// random interleaved inserts and deletes.
func TestTreapMatchesNaive(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		tr := newTreap(seed ^ 0xfeed)
		live := map[uint64]bool{}
		next := uint64(1)
		for op := 0; op < 300; op++ {
			if r.Intn(3) != 0 || len(live) == 0 {
				tr.Insert(next)
				live[next] = true
				next++
			} else {
				// Delete a pseudo-random live key.
				var k uint64
				n := r.Intn(len(live))
				for key := range live {
					if n == 0 {
						k = key
						break
					}
					n--
				}
				// Map iteration order is random; re-derive determinism by
				// just deleting whichever key was found.
				tr.Delete(k)
				delete(live, k)
			}
			// Spot-check a query.
			q := uint64(r.Intn(int(next)))
			want := 0
			for key := range live {
				if key > q {
					want++
				}
			}
			if got := tr.CountGreater(q); got != want {
				return false
			}
		}
		return tr.Len() == len(live)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
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
