package bbv

import (
	"math"
	"testing"
	"testing/quick"

	"phasemark/internal/stats"
)

func vec(pairs ...float64) Vector {
	v := Vector{}
	for i := 0; i < len(pairs); i += 2 {
		v.Idx = append(v.Idx, int32(pairs[i]))
		v.Val = append(v.Val, pairs[i+1])
	}
	return v
}

func TestAccumulatorSnapshot(t *testing.T) {
	a := NewAccumulator(10)
	a.Touch(3, 5)
	a.Touch(7, 2)
	a.Touch(3, 5)
	v := a.Snapshot()
	if len(v.Idx) != 2 || v.Idx[0] != 3 || v.Idx[1] != 7 {
		t.Fatalf("idx = %v", v.Idx)
	}
	if v.Val[0] != 10 || v.Val[1] != 2 {
		t.Fatalf("val = %v", v.Val)
	}
	// Snapshot resets.
	v2 := a.Snapshot()
	if len(v2.Idx) != 0 {
		t.Fatalf("accumulator not reset: %v", v2.Idx)
	}
	a.Touch(1, 1)
	v3 := a.Snapshot()
	if len(v3.Idx) != 1 || v3.Idx[0] != 1 {
		t.Fatalf("reuse after reset: %v", v3)
	}
}

func TestNormalized(t *testing.T) {
	v := vec(0, 2, 5, 6)
	n := v.Normalized()
	if n.L1() != 1 {
		t.Fatalf("L1 = %v", n.L1())
	}
	if n.Val[0] != 0.25 || n.Val[1] != 0.75 {
		t.Fatalf("vals = %v", n.Val)
	}
	// Zero vector survives.
	z := Vector{}
	if z.Normalized().L1() != 0 {
		t.Fatal("zero vector")
	}
}

// Regression: Normalized used to return a copy whose Idx slice aliased
// the receiver's, so mutating the normalized vector's indices corrupted
// the original (and, through the accumulator's shared snapshot chunks,
// every other vector carved from the same chunk).
func TestNormalizedDeepCopies(t *testing.T) {
	v := vec(0, 2, 5, 6)
	n := v.Normalized()
	n.Idx[0] = 99
	n.Val[0] = -1
	if v.Idx[0] != 0 || v.Val[0] != 2 {
		t.Fatalf("mutating Normalized() corrupted the receiver: Idx=%v Val=%v", v.Idx, v.Val)
	}
	// Same for the zero-mass path.
	z := vec(3, 0)
	nz := z.Normalized()
	nz.Idx[0] = 42
	if z.Idx[0] != 3 {
		t.Fatalf("zero-mass Normalized() aliases Idx: %v", z.Idx)
	}
}

// Rewind invalidates prior snapshots and reuses their chunk storage.
func TestAccumulatorRewind(t *testing.T) {
	a := NewAccumulator(10)
	a.Touch(3, 5)
	v1 := a.Snapshot()
	if v1.Idx[0] != 3 || v1.Val[0] != 5 {
		t.Fatalf("snapshot 1: %v", v1)
	}
	a.Rewind()
	a.Touch(7, 2)
	v2 := a.Snapshot()
	if v2.Idx[0] != 7 || v2.Val[0] != 2 {
		t.Fatalf("snapshot 2: %v", v2)
	}
	// Storage was recycled: v1 now sees v2's entries (the documented
	// invalidation), proving rewind reclaims rather than leaks.
	if v1.Idx[0] != 7 {
		t.Fatalf("rewind did not recycle chunk storage: v1.Idx=%v", v1.Idx)
	}
}

func TestManhattanNormedKnownValues(t *testing.T) {
	a := vec(0, 1)       // all mass on block 0
	b := vec(1, 1)       // all mass on block 1
	c := vec(0, 1, 1, 1) // split evenly
	if d := ManhattanNormed(a, b); d != 2 {
		t.Errorf("disjoint distance = %v, want 2", d)
	}
	if d := ManhattanNormed(a, a); d != 0 {
		t.Errorf("self distance = %v", d)
	}
	if d := ManhattanNormed(a, c); math.Abs(d-1) > 1e-12 {
		t.Errorf("half-overlap distance = %v, want 1", d)
	}
	// Scale invariance: distance uses normalized vectors.
	a10 := vec(0, 10)
	if d := ManhattanNormed(a10, b); d != 2 {
		t.Errorf("scaled distance = %v, want 2", d)
	}
}

// Properties of the distance: symmetry, bounds [0,2], identity.
func TestManhattanNormedProperties(t *testing.T) {
	gen := func(seed uint64) Vector {
		r := stats.NewRNG(seed)
		n := r.Intn(8) + 1
		v := Vector{}
		idx := 0
		for i := 0; i < n; i++ {
			idx += r.Intn(5) + 1
			v.Idx = append(v.Idx, int32(idx))
			v.Val = append(v.Val, r.Float64()*10+0.01)
		}
		return v
	}
	f := func(s1, s2 uint64) bool {
		a, b := gen(s1), gen(s2)
		d1 := ManhattanNormed(a, b)
		d2 := ManhattanNormed(b, a)
		return math.Abs(d1-d2) < 1e-12 && d1 >= 0 && d1 <= 2+1e-12 &&
			ManhattanNormed(a, a) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestProjectMatchesDense(t *testing.T) {
	p := stats.NewProjection(16, 3, 9)
	v := vec(2, 4, 9, 12)
	got := make([]float64, p.Out())
	v.ProjectInto(got, p)
	dense := make([]float64, 16)
	dense[2], dense[9] = 0.25, 0.75
	want := p.Apply(dense)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("projection mismatch: %v vs %v", got, want)
		}
	}
	// Zero vector: no normalization, projection of zeros is zeros.
	zero := Vector{}
	out := []float64{1, 2, 3}
	zero.ProjectInto(out, p)
	for i, x := range out {
		if x != 0 {
			t.Fatalf("zero-vector projection[%d] = %v", i, x)
		}
	}
}

// Regression: projecting must not allocate per-entry scratch (it used to
// widen Idx into a fresh []int and build a normalized copy on every
// call).
func TestProjectAllocs(t *testing.T) {
	p := stats.NewProjection(256, 15, 4)
	v := vec(3, 10, 40, 2, 100, 7, 200, 1)
	dst := make([]float64, p.Out())
	if allocs := testing.AllocsPerRun(100, func() { v.ProjectInto(dst, p) }); allocs != 0 {
		t.Fatalf("ProjectInto allocates %v times per call, want 0", allocs)
	}
}
