package simpoint

import (
	"math"
	"testing"

	"phasemark/internal/bbv"
	"phasemark/internal/stats"
	"phasemark/internal/trace"
)

// synthIntervals builds n deterministic sparse-BBV intervals over
// numBlocks static blocks, with a two-cluster structure (even intervals
// touch the low half of the blocks, odd the high half).
func synthIntervals(n, numBlocks int, seed uint64) []*trace.Interval {
	r := stats.NewRNG(seed)
	out := make([]*trace.Interval, n)
	var at uint64
	for i := range out {
		ln := uint64(r.Intn(900) + 100)
		base := 0
		if i%2 == 1 {
			base = numBlocks / 2
		}
		v := bbv.Vector{}
		mass := float64(ln)
		for j := 0; j < 4; j++ {
			v.Idx = append(v.Idx, int32(base+j*3+r.Intn(3)))
			share := mass / 4
			v.Val = append(v.Val, share)
		}
		out[i] = &trace.Interval{Index: i, Start: at, End: at + ln, BBV: v}
		at += ln
	}
	return out
}

// chunks converts materialized intervals into streamed-chunk form.
func chunks(ivs []*trace.Interval, size int) [][]trace.Interval {
	var out [][]trace.Interval
	for len(ivs) > 0 {
		n := min(size, len(ivs))
		c := make([]trace.Interval, n)
		for i := 0; i < n; i++ {
			c[i] = *ivs[i]
		}
		out = append(out, c)
		ivs = ivs[n:]
	}
	return out
}

// A stream that ends inside the seeding buffer must degrade to exactly
// the batch engine's answer on those points.
func TestStreamKMeansShortStreamMatchesBatch(t *testing.T) {
	const numBlocks, dims = 64, 8
	opts := Options{ForceK: 2, Dims: dims, Seed: 3, Restarts: 2, MaxIters: 40, Workers: 1}
	ivs := synthIntervals(40, numBlocks, 11) // < seedTarget

	s := NewStreamKMeans(numBlocks, opts)
	for _, c := range chunks(ivs, 16) {
		s.ObserveChunk(c)
	}
	res := s.Finish()

	pts, weights := ProjectIntervals(ivs, numBlocks, dims, opts.Seed)
	want := Cluster(pts, weights, opts)
	if res.K != want.K {
		t.Fatalf("K = %d, want %d", res.K, want.K)
	}
	for i := 0; i < res.K*dims; i++ {
		if res.Centers.Data[i] != want.Centers.Data[i] {
			t.Fatalf("center data differs at %d: %v vs %v", i, res.Centers.Data[i], want.Centers.Data[i])
		}
	}
}

func TestStreamKMeansSanityAndDeterminism(t *testing.T) {
	const numBlocks, dims = 64, 8
	opts := Options{ForceK: 2, Dims: dims, Seed: 3, Restarts: 2, MaxIters: 40, Workers: 1}
	ivs := synthIntervals(2000, numBlocks, 5)

	run := func() *StreamResult {
		s := NewStreamKMeans(numBlocks, opts)
		for _, c := range chunks(ivs, 64) {
			s.ObserveChunk(c)
		}
		return s.Finish()
	}
	a, b := run(), run()
	if a.K != 2 || a.Points != len(ivs) {
		t.Fatalf("K=%d points=%d", a.K, a.Points)
	}
	// Mass conservation: every instruction lands in exactly one centroid.
	var mass, total float64
	for _, m := range a.Mass {
		mass += m
	}
	for _, iv := range ivs {
		total += float64(iv.Len())
	}
	if math.Abs(mass-total) > 1e-6 {
		t.Fatalf("mass %v != total instructions %v", mass, total)
	}
	ws := a.Weights()
	var wsum float64
	for _, w := range ws {
		wsum += w
	}
	if math.Abs(wsum-1) > 1e-12 {
		t.Fatalf("weights sum to %v", wsum)
	}
	// Determinism: identical streams, identical centroids.
	for i := range a.Centers.Data {
		if a.Centers.Data[i] != b.Centers.Data[i] {
			t.Fatalf("nondeterministic centers at %d", i)
		}
	}
	// The two synthetic behavior groups are linearly separable; the two
	// centroids must split the mass roughly evenly rather than collapse.
	if ws[0] < 0.3 || ws[0] > 0.7 {
		t.Fatalf("degenerate split: weights %v", ws)
	}
}

// The bounded-memory claim, asserted: once seeded, observing an interval
// allocates nothing, and the streamer retains only O(k·d) state — the
// centroids, their masses, and one scratch row — no matter how many
// intervals flow through.
func TestStreamKMeansBoundedMemory(t *testing.T) {
	const numBlocks, dims = 64, 8
	opts := Options{ForceK: 2, Dims: dims, Seed: 3, Restarts: 1, MaxIters: 20, Workers: 1}
	ivs := synthIntervals(1000, numBlocks, 9)

	s := NewStreamKMeans(numBlocks, opts)
	for _, iv := range ivs {
		s.Observe(iv)
	}
	if s.centers.N == 0 {
		t.Fatal("not seeded")
	}
	// Seeding buffer released.
	if s.buf.Data != nil || s.bufW != nil {
		t.Fatal("seed buffer retained after seeding")
	}
	// Retained state is k·d + k + d floats, independent of 1000 observed.
	if got, want := len(s.centers.Data), s.k*dims; got != want {
		t.Fatalf("centers storage %d, want %d", got, want)
	}
	if len(s.mass) != s.k || len(s.scratch) != dims {
		t.Fatalf("mass/scratch sized %d/%d", len(s.mass), len(s.scratch))
	}
	// Steady-state observation is allocation-free.
	iv := ivs[0]
	if allocs := testing.AllocsPerRun(200, func() { s.Observe(iv) }); allocs != 0 {
		t.Fatalf("Observe allocates %v times per call at steady state, want 0", allocs)
	}
}

// A StreamKMeans result must not depend on how the stream is chunked:
// same centroids, mass, SSE at every chunk size. Chunk size 40 lands the
// seed boundary mid-chunk (seedTarget 64 with ForceK 2), so one chunk
// feeds both the seeding buffer and the mini-batch absorptions.
func TestStreamKMeansChunkSizeInvariance(t *testing.T) {
	const numBlocks, dims = 64, 8
	opts := Options{ForceK: 2, Dims: dims, Seed: 3, Restarts: 2, MaxIters: 40, Workers: 1}
	ivs := synthIntervals(500, numBlocks, 9)

	ref := NewStreamKMeans(numBlocks, opts)
	for _, c := range chunks(ivs, 64) {
		ref.ObserveChunk(c)
	}
	want := ref.Finish()

	for _, size := range []int{1, 7, 40, 256} {
		s := NewStreamKMeans(numBlocks, opts)
		for _, c := range chunks(ivs, size) {
			s.ObserveChunk(c)
		}
		got := s.Finish()
		if got.K != want.K || got.Points != want.Points || got.SSE != want.SSE {
			t.Fatalf("size=%d: K/Points/SSE %d/%d/%v, want %d/%d/%v",
				size, got.K, got.Points, got.SSE, want.K, want.Points, want.SSE)
		}
		for i := range want.Centers.Data {
			if got.Centers.Data[i] != want.Centers.Data[i] {
				t.Fatalf("size=%d: center data differs at %d", size, i)
			}
		}
		for i := range want.Mass {
			if got.Mass[i] != want.Mass[i] {
				t.Fatalf("size=%d: mass %d differs", size, i)
			}
		}
	}
}

// The clusterer's steady state must stay allocation-free per chunk: the
// streaming engine calls ObserveChunk once per delivered chunk for the
// whole trace.
func TestStreamKMeansChunkParSteadyStateAllocs(t *testing.T) {
	const numBlocks, dims = 64, 8
	opts := Options{ForceK: 2, Dims: dims, Seed: 3, Restarts: 2, MaxIters: 40, Workers: 1}
	s := NewStreamKMeans(numBlocks, opts)
	warm := chunks(synthIntervals(200, numBlocks, 13), 50)
	for _, c := range warm {
		s.ObserveChunk(c) // past seeding
	}
	if s.centers.N == 0 {
		t.Fatal("clusterer still unseeded after warmup")
	}
	chunk := warm[len(warm)-1]
	if allocs := testing.AllocsPerRun(100, func() {
		s.ObserveChunk(chunk)
	}); allocs != 0 {
		t.Fatalf("steady-state ObserveChunk allocates %v per chunk, want 0", allocs)
	}
}
