// Package simpoint reimplements the SimPoint phase-classification tool the
// paper builds on: basic block vectors are randomly projected to a few
// dimensions and clustered with (weighted) k-means; the number of clusters
// is chosen with the Bayesian Information Criterion; one simulation point
// is picked per cluster (the interval closest to the centroid) and the
// cluster weights estimate whole-program metrics from the points alone.
//
// Interval weights make this the SimPoint 3.0 VLI variant (§5.2, [15]):
// with variable-length intervals each interval represents a different
// fraction of execution, so distances to centroids and BIC likelihoods are
// weighted by instruction mass.
//
// The engine fans the independent (k, restart) runs across a worker pool
// and accelerates each run's Lloyd iterations with Hamerly-style
// triangle-inequality bounds (see engine.go). Every run derives its own
// RNG stream from Options.Seed and its (k, restart) pair, so results are
// byte-identical at any worker count; the naive single-threaded Lloyd
// pass survives as kmeansOnce, the test oracle the accelerated path is
// checked against.
package simpoint

import (
	"math"
	"runtime"

	"phasemark/internal/obs"
	"phasemark/internal/par"
	"phasemark/internal/stats"
)

// Clustering metrics: total k-means work done by SimPoint classification
// and the iteration count it took each run to converge.
var (
	obsClusterings = obs.NewCounter("simpoint.clusterings")
	obsKMeansRuns  = obs.NewCounter("simpoint.kmeans_runs")
	obsKMeansIters = obs.NewCounter("simpoint.kmeans_iters")
	obsItersPerRun = obs.NewHist("simpoint.kmeans_iters_per_run")
)

// seedSalt decorrelates clustering RNG streams from other uses of the
// same user-level seed.
const seedSalt = 0x51e0b6c4d5a3f7e9

// bicPercent is SimPoint's model-selection threshold: Cluster picks the
// smallest k whose normalized BIC reaches it.
const bicPercent = 0.9

// Options configures clustering.
type Options struct {
	KMax     int    // largest k tried (paper: 10 for 10M, 30 for 1M fixed, 100/others per config)
	Dims     int    // projection dimensionality (paper: 15)
	Seed     uint64 // RNG seed for projection and seeding
	Restarts int    // k-means restarts per k (default 3)
	MaxIters int    // k-means iteration cap (default 60)
	ForceK   int    // when > 0, skip model selection and use exactly this k
	Workers  int    // (k, restart) runs clustered in parallel (default GOMAXPROCS)
}

func (o Options) restarts() int {
	if o.Restarts <= 0 {
		return 3
	}
	return o.Restarts
}

func (o Options) maxIters() int {
	if o.MaxIters <= 0 {
		return 60
	}
	return o.MaxIters
}

func (o Options) workers() int {
	if o.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}

// Clustering is the result of k-means phase classification.
type Clustering struct {
	K       int
	Assign  []int     // point index -> cluster
	Centers Matrix    // K centroids
	Weights []float64 // fraction of total instruction mass per cluster
	BIC     float64

	points Matrix // cached projected points (set by Classify)
}

func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// runScratch is one worker's reusable state for a single (k, restart)
// k-means run: centroid matrices, accumulators, the assignment, and the
// Hamerly bound arrays. Sized once for the largest k a Cluster call
// tries, then reused across every run that worker executes, so the
// steady-state engine allocates nothing.
type runScratch struct {
	k int // current run's cluster count (rows of centers in use)

	centers Matrix // kmax x d storage; rows [0, k) live
	prev    Matrix // centroid snapshot from before the last update
	sums    Matrix // weighted coordinate sums per cluster
	mass    []float64
	assign  []int

	// Seeding / reseeding scratch.
	minD     []float64 // squared distance to the nearest center
	reseeded []bool

	// Hamerly bounds (engine.go).
	upper   []float64 // upper bound on distance to the assigned center
	lower   []float64 // lower bound on distance to the second-closest center
	moves   []float64 // per-center move distance of the last update
	halfSep []float64 // half the distance to the nearest other center
}

func newRunScratch(n, d, kmax int) *runScratch {
	return &runScratch{
		centers:  NewMatrix(kmax, d),
		prev:     NewMatrix(kmax, d),
		sums:     NewMatrix(kmax, d),
		mass:     make([]float64, kmax),
		assign:   make([]int, n),
		minD:     make([]float64, n),
		reseeded: make([]bool, n),
		upper:    make([]float64, n),
		lower:    make([]float64, n),
		moves:    make([]float64, kmax),
		halfSep:  make([]float64, kmax),
	}
}

// seed runs incremental weighted k-means++ seeding: minD carries each
// point's squared distance to its nearest chosen center across rounds, so
// adding center m costs one O(n·d) pass instead of recomputing all m
// distances — O(n·k·d) total instead of O(n·k²·d). The min chain,
// accumulation order, and RNG consumption match the textbook recompute
// formulation bit for bit. Tracking the argmin alongside minD yields the
// initial assignment for free.
func (s *runScratch) seed(pts Matrix, weights []float64, rng *stats.RNG) {
	n, k := pts.N, s.k
	first := rng.Intn(n)
	copy(s.centers.Row(0), pts.Row(first))
	c0 := s.centers.Row(0)
	for i := 0; i < n; i++ {
		s.minD[i] = sqDist(pts.Row(i), c0)
		s.assign[i] = 0
	}
	for m := 1; m < k; m++ {
		var total float64
		for i := 0; i < n; i++ {
			total += s.minD[i] * weights[i]
		}
		var pick int
		if total == 0 {
			// All remaining points coincide with centers; duplicate one.
			pick = rng.Intn(n)
		} else {
			r := rng.Float64() * total
			pick = n - 1
			var acc float64
			for i := 0; i < n; i++ {
				acc += s.minD[i] * weights[i]
				if acc >= r {
					pick = i
					break
				}
			}
		}
		cm := s.centers.Row(m)
		copy(cm, pts.Row(pick))
		for i := 0; i < n; i++ {
			if q := sqDist(pts.Row(i), cm); q < s.minD[i] {
				s.minD[i] = q
				s.assign[i] = m
			}
		}
	}
}

// update recomputes the weighted centroids from the current assignment
// and reports whether any zero-mass cluster had to be reseeded (in which
// case centroids moved arbitrarily and distance bounds are invalid).
func (s *runScratch) update(pts Matrix, weights []float64) (reseeded bool) {
	n, k := pts.N, s.k
	for c := 0; c < k; c++ {
		s.mass[c] = 0
		row := s.sums.Row(c)
		for j := range row {
			row[j] = 0
		}
	}
	for i := 0; i < n; i++ {
		c := s.assign[i]
		w := weights[i]
		s.mass[c] += w
		sum := s.sums.Row(c)
		for j, x := range pts.Row(i) {
			sum[j] += x * w
		}
	}
	anyEmpty := false
	for c := 0; c < k; c++ {
		if s.mass[c] == 0 {
			anyEmpty = true
			continue
		}
		row, sum := s.centers.Row(c), s.sums.Row(c)
		for j := range row {
			row[j] = sum[j] / s.mass[c]
		}
	}
	if anyEmpty {
		s.reseedEmpty(pts)
	}
	return anyEmpty
}

// reseedEmpty relocates every zero-mass cluster to the most isolated
// point. All non-empty centroids are updated before this runs, so one
// shared pass computes each point's distance to its (fresh) centroid;
// per empty cluster, in ascending order, the farthest not-yet-claimed
// point becomes the new centroid and is claimed in assign. Several
// clusters can be empty in one update; each must take a *distinct* point
// or they would all land on the same most-isolated point and stay
// duplicated centroids forever.
func (s *runScratch) reseedEmpty(pts Matrix) {
	n, k := pts.N, s.k
	for i := 0; i < n; i++ {
		s.minD[i] = sqDist(pts.Row(i), s.centers.Row(s.assign[i]))
		s.reseeded[i] = false
	}
	for c := 0; c < k; c++ {
		if s.mass[c] != 0 {
			continue
		}
		far, farD := -1, -1.0
		for i := 0; i < n; i++ {
			if s.reseeded[i] {
				continue
			}
			if s.minD[i] > farD {
				far, farD = i, s.minD[i]
			}
		}
		if far < 0 {
			continue // more empty clusters than points
		}
		s.reseeded[far] = true
		copy(s.centers.Row(c), pts.Row(far))
		s.assign[far] = c
		s.minD[far] = 0
		// The relocated centroid changes the reference distance of any
		// zero-weight point still assigned to c.
		for i := 0; i < n; i++ {
			if i != far && s.assign[i] == c {
				s.minD[i] = sqDist(pts.Row(i), s.centers.Row(c))
			}
		}
	}
}

// assignNaive is the reference assignment pass: a full scan over every
// center for every point. Assignment is sticky — a point moves only to a
// *strictly* closer center — so exact ties (duplicate points or
// centroids) keep their current cluster. Lowest-index-argmin ties would
// let duplicated centroids steal each other's points back every
// iteration, so a run over duplicate-heavy inputs would oscillate
// instead of converging.
func (s *runScratch) assignNaive(pts Matrix) (changed bool) {
	n, k := pts.N, s.k
	for i := 0; i < n; i++ {
		p := pts.Row(i)
		a := s.assign[i]
		best, bestD := a, sqDist(p, s.centers.Row(a))
		for c := 0; c < k; c++ {
			if c == a {
				continue
			}
			if q := sqDist(p, s.centers.Row(c)); q < bestD {
				best, bestD = c, q
			}
		}
		if best != a {
			s.assign[i] = best
			changed = true
		}
	}
	return changed
}

// sse computes the weighted within-cluster sum of squared distances.
func (s *runScratch) sse(pts Matrix, weights []float64) float64 {
	var sse float64
	for i := 0; i < pts.N; i++ {
		sse += weights[i] * sqDist(pts.Row(i), s.centers.Row(s.assign[i]))
	}
	return sse
}

// lloyd runs one seeded, weighted k-means run to convergence (or the
// iteration cap) and reports the number of assignment passes. bounded
// selects the Hamerly-accelerated assignment (engine.go); both paths
// produce identical assignments and centroids, which the equivalence
// tests enforce. The result always pairs the final assignment with the
// centroids it was computed against, so every point ends assigned to its
// nearest returned centroid.
//
// Termination is two-fold. The usual criterion is an assignment pass
// that moves nothing. But when the data has fewer distinct locations
// than clusters (duplicate-heavy BBVs), empty-cluster reseeding can
// cycle: a reseeded centroid lands on a duplicate pile, steals it from
// its owner, which goes empty and reseeds in turn, forever. Every Lloyd
// sub-step — centroid update, reseed claim, strictly-closer
// reassignment — is SSE-non-increasing, so a weighted SSE that fails to
// strictly decrease means the run is cycling through equal-cost states
// (or has hit floating-point resolution) and is done; without this test
// such runs would spin at the iteration cap doing no useful work.
func (s *runScratch) lloyd(pts Matrix, weights []float64, k int, rng *stats.RNG, maxIters int, bounded bool) int {
	s.k = k
	s.seed(pts, weights, rng)
	if bounded {
		s.initBounds()
	}
	iters := 1 // the seeding pass assigns every point
	prevSSE := math.Inf(1)
	for iters < maxIters {
		if bounded {
			s.snapshotCenters()
		}
		reseeded := s.update(pts, weights)
		var changed bool
		if bounded {
			if reseeded {
				s.invalidateBounds()
			} else {
				s.applyMoves()
			}
			changed = s.assignBounded(pts)
		} else {
			changed = s.assignNaive(pts)
		}
		iters++
		if !changed {
			break
		}
		sse := s.sse(pts, weights)
		if sse >= prevSSE {
			break
		}
		prevSSE = sse
	}
	return iters
}

// kmeansOnce runs one naive weighted k-means run — seeding, full-scan
// Lloyd iterations, no bounds, no parallelism. It is the engine's test
// oracle: Cluster must produce bit-identical assignments and centroids
// for the same (points, weights, k, rng) run. It also reports how many
// assignment iterations it performed (for metrics).
func kmeansOnce(pts Matrix, weights []float64, k int, rng *stats.RNG, maxIters int) ([]int, Matrix, float64, int) {
	s := newRunScratch(pts.N, pts.D, k)
	iters := s.lloyd(pts, weights, k, rng, maxIters, false)
	assign := append([]int(nil), s.assign...)
	centers := NewMatrix(k, pts.D)
	copy(centers.Data, s.centers.Data[:k*pts.D])
	return assign, centers, s.sse(pts, weights), iters
}

// bicScore computes the Pelleg–Moore (X-means) BIC for a clustering, with
// interval weights acting as fractional point counts.
func bicScore(pts Matrix, weights []float64, assign []int, centers Matrix) float64 {
	k := centers.N
	d := float64(pts.D)
	var r float64
	rn := make([]float64, k)
	var sse float64
	for i := 0; i < pts.N; i++ {
		r += weights[i]
		rn[assign[i]] += weights[i]
		sse += weights[i] * sqDist(pts.Row(i), centers.Row(assign[i]))
	}
	if r <= float64(k) {
		return math.Inf(-1)
	}
	variance := sse / (r - float64(k))
	if variance <= 0 {
		variance = 1e-12
	}
	var ll float64
	for c := 0; c < k; c++ {
		if rn[c] <= 0 {
			continue
		}
		ll += rn[c]*math.Log(rn[c]/r) -
			rn[c]*d/2*math.Log(2*math.Pi*variance) -
			(rn[c]-1)*d/2
	}
	params := float64(k)*(d+1) + 1
	return ll - params/2*math.Log(r)
}

// Cluster classifies the projected points. weights is the instruction mass
// of each point (nil for uniform). It tries k = 1..KMax, scores each best
// restart with BIC, and returns the smallest k whose normalized BIC
// reaches bicPercent of the observed range — SimPoint's model selection.
//
// The (k, restart) runs are independent, so they fan out across
// Options.Workers workers, each with its own reusable scratch. Every run
// seeds its RNG with stats.DeriveSeed(Seed, k, restart), so the output is
// byte-identical at any worker count and any execution order.
func Cluster(pts Matrix, weights []float64, opts Options) *Clustering {
	n := pts.N
	if n == 0 {
		return &Clustering{}
	}
	if weights == nil {
		weights = make([]float64, n)
		for i := range weights {
			weights[i] = 1
		}
	}
	kmax := opts.KMax
	if kmax <= 0 {
		kmax = 10
	}
	if kmax > n {
		kmax = n
	}
	kmin := 1
	if opts.ForceK > 0 {
		kmin = opts.ForceK
		kmax = opts.ForceK
		if kmax > n {
			kmin, kmax = n, n
		}
	}
	sp := obs.StartSpan("simpoint.cluster", "")
	defer sp.End()
	obsClusterings.Inc()

	restarts := opts.restarts()
	maxIters := opts.maxIters()
	type runResult struct {
		k, rs   int
		assign  []int
		centers Matrix
		sse     float64
	}
	runs := make([]runResult, (kmax-kmin+1)*restarts)
	for idx := range runs {
		runs[idx].k = kmin + idx/restarts
		runs[idx].rs = idx % restarts
	}
	workers := opts.workers()
	if workers > len(runs) {
		workers = len(runs)
	}
	engines := make([]*runScratch, workers)
	par.ForEach(len(runs), workers, nil, func(worker, idx int) {
		s := engines[worker]
		if s == nil {
			s = newRunScratch(n, pts.D, kmax)
			engines[worker] = s
		}
		r := &runs[idx]
		rng := stats.NewRNG(stats.DeriveSeed(opts.Seed^seedSalt, uint64(r.k), uint64(r.rs)))
		iters := s.lloyd(pts, weights, r.k, rng, maxIters, true)
		obsKMeansRuns.Inc()
		obsKMeansIters.Add(uint64(iters))
		obsItersPerRun.Observe(uint64(iters))
		r.assign = append([]int(nil), s.assign...)
		r.centers = NewMatrix(r.k, pts.D)
		copy(r.centers.Data, s.centers.Data[:r.k*pts.D])
		r.sse = s.sse(pts, weights)
	})

	type result struct {
		c   Clustering
		bic float64
	}
	results := make([]result, 0, kmax-kmin+1)
	for k := kmin; k <= kmax; k++ {
		bestSSE := math.Inf(1)
		var best *runResult
		for rs := 0; rs < restarts; rs++ {
			r := &runs[(k-kmin)*restarts+rs]
			if r.sse < bestSSE {
				bestSSE = r.sse
				best = r
			}
		}
		c := Clustering{K: k, Assign: best.assign, Centers: best.centers}
		c.BIC = bicScore(pts, weights, c.Assign, c.Centers)
		results = append(results, result{c: c, bic: c.BIC})
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, r := range results {
		lo = math.Min(lo, r.bic)
		hi = math.Max(hi, r.bic)
	}
	chosen := &results[len(results)-1].c
	if hi > lo {
		for i := range results {
			if (results[i].bic-lo)/(hi-lo) >= bicPercent {
				chosen = &results[i].c
				break
			}
		}
	} else {
		chosen = &results[0].c
	}
	// Cluster weights by instruction mass.
	chosen.Weights = make([]float64, chosen.K)
	var total float64
	for i, c := range chosen.Assign {
		chosen.Weights[c] += weights[i]
		total += weights[i]
	}
	if total > 0 {
		for c := range chosen.Weights {
			chosen.Weights[c] /= total
		}
	}
	return chosen
}
