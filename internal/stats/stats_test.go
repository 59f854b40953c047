package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale < 1 {
		scale = 1
	}
	return math.Abs(a-b) <= eps*scale
}

func TestWelfordKnownValues(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.N() != 8 {
		t.Fatalf("n = %d", w.N())
	}
	if !almostEqual(w.Mean(), 5, 1e-12) {
		t.Errorf("mean = %v, want 5", w.Mean())
	}
	if !almostEqual(w.StdDev(), 2, 1e-12) {
		t.Errorf("std = %v, want 2", w.StdDev())
	}
	if !almostEqual(w.CoV(), 0.4, 1e-12) {
		t.Errorf("cov = %v, want 0.4", w.CoV())
	}
	if w.Min() != 2 || w.Max() != 9 {
		t.Errorf("min/max = %v/%v", w.Min(), w.Max())
	}
	if w.Sum() != 40 {
		t.Errorf("sum = %v", w.Sum())
	}
}

func TestWelfordEmptyAndConstant(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.StdDev() != 0 || w.CoV() != 0 {
		t.Error("empty accumulator must read as zeros")
	}
	for i := 0; i < 100; i++ {
		w.Add(3.5)
	}
	if w.StdDev() != 0 || w.CoV() != 0 {
		t.Errorf("constant stream: std=%v cov=%v", w.StdDev(), w.CoV())
	}
}

// Property: Welford matches the naive two-pass computation on any input.
func TestWelfordMatchesNaive(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e9 {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		var w Welford
		var sum float64
		for _, x := range clean {
			w.Add(x)
			sum += x
		}
		mean := sum / float64(len(clean))
		var m2 float64
		for _, x := range clean {
			m2 += (x - mean) * (x - mean)
		}
		return almostEqual(w.Mean(), mean, 1e-9) &&
			almostEqual(w.Variance(), m2/float64(len(clean)), 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestWeightedMatchesUnweightedWithUnitWeights(t *testing.T) {
	xs := []float64{1, 5, 2, 8, 3, 3, 9}
	var w Welford
	var wt Weighted
	for _, x := range xs {
		w.Add(x)
		wt.Add(x, 1)
	}
	if !almostEqual(w.Mean(), wt.Mean(), 1e-12) || !almostEqual(w.Variance(), wt.Variance(), 1e-12) {
		t.Errorf("weighted(1) != unweighted: %v/%v vs %v/%v",
			wt.Mean(), wt.Variance(), w.Mean(), w.Variance())
	}
}

func TestWeightedScaling(t *testing.T) {
	// Weight w is equivalent to repeating the observation w times.
	var a, b Weighted
	a.Add(2, 3)
	a.Add(10, 1)
	for i := 0; i < 3; i++ {
		b.Add(2, 1)
	}
	b.Add(10, 1)
	if !almostEqual(a.Mean(), b.Mean(), 1e-12) || !almostEqual(a.Variance(), b.Variance(), 1e-12) {
		t.Errorf("integer weights must act like repetition")
	}
	var c Weighted
	c.Add(1, 0)
	c.Add(1, -5)
	if c.N() != 0 {
		t.Error("non-positive weights must be ignored")
	}
}

func TestRNGDeterminismAndRange(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
	r := NewRNG(7)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(10); v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGUniformity(t *testing.T) {
	r := NewRNG(99)
	buckets := make([]int, 10)
	const n = 100_000
	for i := 0; i < n; i++ {
		buckets[r.Intn(10)]++
	}
	for i, c := range buckets {
		if c < n/10-n/100 || c > n/10+n/100 {
			t.Errorf("bucket %d wildly off: %d", i, c)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(7)
	var w Welford
	for i := 0; i < 50_000; i++ {
		w.Add(r.NormFloat64())
	}
	if math.Abs(w.Mean()) > 0.02 {
		t.Errorf("normal mean = %v", w.Mean())
	}
	if math.Abs(w.StdDev()-1) > 0.02 {
		t.Errorf("normal std = %v", w.StdDev())
	}
}

func TestProjectionLinearity(t *testing.T) {
	p := NewProjection(20, 5, 1)
	r := NewRNG(2)
	a := make([]float64, 20)
	b := make([]float64, 20)
	for i := range a {
		a[i] = r.Float64()
		b[i] = r.Float64()
	}
	pa, pb := p.Apply(a), p.Apply(b)
	sum := make([]float64, 20)
	for i := range sum {
		sum[i] = 2*a[i] + 3*b[i]
	}
	ps := p.Apply(sum)
	for i := range ps {
		if !almostEqual(ps[i], 2*pa[i]+3*pb[i], 1e-9) {
			t.Fatalf("projection not linear at dim %d", i)
		}
	}
}

func TestProjectionSparseMatchesDense(t *testing.T) {
	p := NewProjection(30, 4, 5)
	dense := make([]float64, 30)
	var idx []int32
	var val []float64
	for _, i := range []int32{3, 7, 22} {
		dense[i] = float64(i) * 1.5
		idx = append(idx, i)
		val = append(val, dense[i])
	}
	// Both sum the same products in the same order, so they agree bit
	// for bit.
	d, s := p.Apply(dense), make([]float64, p.Out())
	p.ApplySparse32Into(s, idx, val)
	for i := range d {
		if d[i] != s[i] {
			t.Fatalf("sparse != dense at %d: %v vs %v", i, s[i], d[i])
		}
	}
}

func TestApplySparse32IntoIsAllocFree(t *testing.T) {
	p := NewProjection(64, 15, 3)
	idx := make([]int32, 32)
	val := make([]float64, 32)
	for i := range idx {
		idx[i] = int32(i * 2)
		val[i] = float64(i) + 0.5
	}
	dst := make([]float64, p.Out())
	if allocs := testing.AllocsPerRun(100, func() {
		p.ApplySparse32Into(dst, idx, val)
	}); allocs != 0 {
		t.Fatalf("ApplySparse32Into allocates %v times per call, want 0", allocs)
	}
}

func TestApplySparse32IntoPanicsOnBadDst(t *testing.T) {
	p := NewProjection(8, 3, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for wrong-length destination")
		}
	}()
	p.ApplySparse32Into(make([]float64, 2), nil, nil)
}

func TestDeriveSeed(t *testing.T) {
	// Deterministic: same inputs, same seed.
	if DeriveSeed(1, 2, 3) != DeriveSeed(1, 2, 3) {
		t.Fatal("DeriveSeed is not deterministic")
	}
	// Sensitive to every component, including id order.
	seen := map[uint64][]uint64{}
	for _, tc := range [][]uint64{{1, 2, 3}, {1, 3, 2}, {2, 2, 3}, {1, 2}, {1}, {1, 2, 4}} {
		s := DeriveSeed(tc[0], tc[1:]...)
		if prev, dup := seen[s]; dup {
			t.Fatalf("DeriveSeed collision between %v and %v", prev, tc)
		}
		seen[s] = tc
	}
}
