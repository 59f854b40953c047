package simpoint

import (
	"phasemark/internal/stats"
	"phasemark/internal/trace"
)

// StreamResult is the outcome of a bounded-memory streaming clustering.
type StreamResult struct {
	K       int
	Centers Matrix    // K×D final centroids
	Mass    []float64 // instruction mass absorbed per centroid
	Points  int       // intervals observed
	SSE     float64   // weighted squared distance accumulated at assignment time
}

// Weights reports each centroid's fraction of total instruction mass,
// matching Clustering.Weights semantics.
func (r *StreamResult) Weights() []float64 {
	out := make([]float64, len(r.Mass))
	var total float64
	for _, m := range r.Mass {
		total += m
	}
	if total > 0 {
		for i, m := range r.Mass {
			out[i] = m / total
		}
	}
	return out
}

// StreamKMeans clusters streamed intervals with O(k·d + seed-buffer)
// working memory: the first seedTarget intervals are buffered, projected,
// and clustered with the full Hamerly-accelerated engine (Cluster, forced
// to k) to seed the centroids; every interval after that is projected
// into a reused scratch row and absorbed into its nearest centroid with a
// mass-proportional learning rate (the classic mini-batch k-means update:
// center += (w/mass)·(x − center)), so the centroid means stay the exact
// weighted means of their assigned points under sticky assignment.
// Nothing per-interval is retained — steady-state observation is
// allocation-free.
//
// This is the bounded-memory path: unlike ProjectIntervals + Cluster over
// the materialized intervals it is NOT bit-identical to batch clustering
// (a single pass cannot revisit early assignments), so it backs scale
// amplification while the exact path remains the default for paper
// figures.
type StreamKMeans struct {
	opts       Options
	proj       *stats.Projection
	dims       int
	k          int
	seedTarget int

	// Seeding buffer; released (set to zero values) once seeded.
	buf  Matrix
	bufW []float64
	bufN int

	centers Matrix
	mass    []float64
	scratch []float64
	points  int
	sse     float64
}

// NewStreamKMeans builds a streaming clusterer over programs with
// numBlocks static blocks. opts follows Cluster: ForceK (or KMax when
// ForceK is 0) fixes the centroid count; Dims, Seed, Restarts, MaxIters
// and Workers govern the seeding run.
func NewStreamKMeans(numBlocks int, opts Options) *StreamKMeans {
	if opts.Dims <= 0 {
		opts.Dims = 15
	}
	k := opts.ForceK
	if k <= 0 {
		k = opts.KMax
	}
	if k <= 0 {
		k = 1
	}
	opts.ForceK = k
	seedTarget := max(8*k, 64)
	return &StreamKMeans{
		opts:       opts,
		proj:       stats.NewProjection(numBlocks, opts.Dims, opts.Seed),
		dims:       opts.Dims,
		k:          k,
		seedTarget: seedTarget,
		buf:        NewMatrix(seedTarget, opts.Dims),
		bufW:       make([]float64, 0, seedTarget),
		scratch:    make([]float64, opts.Dims),
	}
}

// Observe folds one interval into the clustering. Nothing in iv is
// retained.
func (s *StreamKMeans) Observe(iv *trace.Interval) {
	s.points++
	w := float64(iv.Len())
	if s.centers.N == 0 {
		iv.BBV.ProjectInto(s.buf.Row(s.bufN), s.proj)
		s.bufW = append(s.bufW, w)
		s.bufN++
		if s.bufN == s.seedTarget {
			s.seed()
		}
		return
	}
	iv.BBV.ProjectInto(s.scratch, s.proj)
	s.absorb(s.scratch, w)
}

// ObserveChunk folds a streamed chunk (a trace.Config.Sink payload).
func (s *StreamKMeans) ObserveChunk(chunk []trace.Interval) {
	for i := range chunk {
		s.Observe(&chunk[i])
	}
}

// seed clusters the buffered prefix with the batch engine and releases
// the buffer.
func (s *StreamKMeans) seed() {
	o := s.opts
	o.ForceK = min(s.k, s.bufN)
	pts := Matrix{N: s.bufN, D: s.dims, Data: s.buf.Data[:s.bufN*s.dims]}
	c := Cluster(pts, s.bufW, o)
	s.k = c.K
	s.centers = NewMatrix(c.K, s.dims)
	copy(s.centers.Data, c.Centers.Data[:c.K*s.dims])
	s.mass = make([]float64, c.K)
	for i, cl := range c.Assign {
		s.mass[cl] += s.bufW[i]
	}
	s.buf = Matrix{}
	s.bufW = nil
	s.bufN = 0
}

// absorb assigns x (weight w) to its nearest centroid and moves that
// centroid toward x by w/mass — keeping it the running weighted mean of
// everything it has absorbed.
func (s *StreamKMeans) absorb(x []float64, w float64) {
	best, bestD := 0, sqDist(x, s.centers.Row(0))
	for c := 1; c < s.k; c++ {
		if d := sqDist(x, s.centers.Row(c)); d < bestD {
			best, bestD = c, d
		}
	}
	s.sse += w * bestD
	s.mass[best] += w
	if lr := w / s.mass[best]; lr > 0 {
		row := s.centers.Row(best)
		for j, xj := range x {
			row[j] += lr * (xj - row[j])
		}
	}
}

// Finish seeds from whatever is buffered if the stream ended early and
// returns the final centroids. The result's storage is independent of the
// streamer.
func (s *StreamKMeans) Finish() *StreamResult {
	if s.centers.N == 0 && s.bufN > 0 {
		s.seed()
	}
	res := &StreamResult{
		K:      s.k,
		Points: s.points,
		SSE:    s.sse,
	}
	if s.centers.N > 0 {
		res.Centers = NewMatrix(s.centers.N, s.dims)
		copy(res.Centers.Data, s.centers.Data)
		res.Mass = append([]float64(nil), s.mass...)
	} else {
		res.K = 0
	}
	return res
}
