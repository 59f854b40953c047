package core

import (
	"fmt"
	"math"
	"sort"

	"phasemark/internal/obs"
)

// Selection metrics: how much of the edge population each pass keeps.
// "examined" counts every candidate-eligible edge pass 1 looked at,
// "pruned" the ones its ILower test rejected; "selected"/"forced"/"merged"
// classify the final marker set.
var (
	obsSelectRuns       = obs.NewCounter("core.select.runs")
	obsSelectExamined   = obs.NewCounter("core.select.edges_examined")
	obsSelectPruned     = obs.NewCounter("core.select.edges_pruned")
	obsSelectCandidates = obs.NewCounter("core.select.candidates")
	obsSelectSelected   = obs.NewCounter("core.select.selected")
	obsSelectForced     = obs.NewCounter("core.select.forced")
	obsSelectMerged     = obs.NewCounter("core.select.merged")
)

// SelectOptions configures the marker selection algorithm.
type SelectOptions struct {
	// ILower is the minimum allowed average interval size in instructions
	// (the algorithm's one mandatory input, §5.1).
	ILower uint64
	// MaxLimit, when nonzero, enables the SimPoint variant (§5.2): edges
	// whose maximum hierarchical count exceeds it are never marked, a
	// too-large edge forces markers onto its target's outgoing edges, and
	// consecutive loop iterations are merged to land within
	// [ILower, MaxLimit].
	MaxLimit uint64
	// ProcsOnly restricts candidate edges to those entering procedure head
	// or body nodes (the Huang et al.-style comparison in §5.4).
	ProcsOnly bool
	// CovScale sets where the per-edge CoV threshold saturates at
	// avg+stddev: at edge average = CovScale×ILower. Zero means 10.
	CovScale float64
	// MinCount is the minimum traversal count for an edge to be considered
	// a repeating behavior (a CoV needs at least two samples). Zero means 2.
	MinCount uint64
	// Minimize runs the placement-optimization pass (MinimizeMarkers) on
	// the selected set: redundant markers — provably covered through the
	// call-loop graph's dominance/containment structure — are pruned so
	// detectors pay per-site cost only where it buys cuts. Firings of the
	// kept markers are unchanged; see MinimizeMarkers for the contract.
	Minimize bool

	// Ablation switches (not part of the paper's algorithm; used by the
	// design-choice benchmarks):

	// FlatCoV disables the per-edge threshold scaling of pass 2: every
	// edge gets the base avg(CoV) threshold regardless of its size.
	FlatCoV bool
	// NoHeads drops edges into head nodes from candidacy, simulating a
	// call-loop graph without the head/body split — only per-iteration and
	// per-activation edges remain markable, losing the aggregated
	// entry-to-exit views that stabilize variable inner behavior.
	NoHeads bool
}

func (o *SelectOptions) covScale() float64 {
	if o.CovScale <= 1 {
		return 10
	}
	return o.CovScale
}

func (o *SelectOptions) minCount() uint64 {
	if o.MinCount == 0 {
		return 2
	}
	return o.MinCount
}

// Marker is a selected software phase marker: an instrumentable location
// in the binary (an edge of the call-loop graph) whose traversal signals
// the beginning of an interval of repeating behavior. GroupN > 1 means the
// marker fires on every GroupN-th traversal (merged loop iterations).
type Marker struct {
	Key    EdgeKey
	GroupN uint64
	AvgLen float64 // expected instructions per interval (edge avg × GroupN)
	CoV    float64 // hierarchical-count CoV of the underlying edge
	Count  uint64  // profile traversal count
	Forced bool    // placed by max-limit forcing rather than the CoV rule
}

// MarkerSet is the output of selection, plus the thresholds that produced
// it (for reporting).
type MarkerSet struct {
	Markers  []Marker
	Opts     SelectOptions
	CovBase  float64 // avg CoV over candidate edges (threshold floor)
	CovSlack float64 // stddev of CoV over candidates (threshold headroom)
}

// ByKey returns a lookup from edge key to marker index.
func (s *MarkerSet) ByKey() map[EdgeKey]int {
	m := make(map[EdgeKey]int, len(s.Markers))
	for i, mk := range s.Markers {
		m[mk.Key] = i
	}
	return m
}

// String summarizes the set.
func (s *MarkerSet) String() string {
	return fmt.Sprintf("%d markers (ilower=%d maxlimit=%d covbase=%.3f+%.3f)",
		len(s.Markers), s.Opts.ILower, s.Opts.MaxLimit, s.CovBase, s.CovSlack)
}

// SelectMarkers runs the two-pass selection algorithm of §5 on a profiled
// call-loop graph.
//
// Pass 1 walks nodes in reverse estimated-depth order (children before
// parents, leaves first on ties) and collects the edges whose average
// hierarchical instruction count satisfies ILower: the potential markers.
//
// Pass 2 derives the CoV threshold from the potential markers — the base
// is avg(CoV) and up to one stddev(CoV) of extra variability is allowed,
// scaled linearly as an edge's average count grows away from ILower — and
// selects the edges that satisfy both the size and variability limits.
// With MaxLimit set it additionally enforces the maximum interval size and
// merges loop iterations (§5.2).
func SelectMarkers(g *Graph, opts SelectOptions) *MarkerSet {
	sp := obs.StartSpan("core.select_markers", "")
	defer sp.End()
	obsSelectRuns.Inc()
	g.ensureDepths()
	queue := g.NodesByReverseDepth()

	allowed := func(e *Edge) bool {
		if opts.ProcsOnly && e.To.Key.Kind != ProcHead && e.To.Key.Kind != ProcBody {
			return false
		}
		if opts.NoHeads && (e.To.Key.Kind == ProcHead || e.To.Key.Kind == LoopHead) {
			return false
		}
		return e.Count() >= opts.minCount()
	}

	// Pass 1: prune by average hierarchical instruction count.
	pass1 := sp.Child("core.select.pass1", "")
	var candidates []*Edge
	var examined uint64
	for _, n := range queue {
		for _, e := range sortedIn(n) {
			if !allowed(e) {
				continue
			}
			examined++
			if e.Avg() >= float64(opts.ILower) {
				candidates = append(candidates, e)
			}
		}
	}
	pass1.End()
	obsSelectExamined.Add(examined)
	obsSelectPruned.Add(examined - uint64(len(candidates)))
	obsSelectCandidates.Add(uint64(len(candidates)))

	// Threshold from the candidate population: programs inherently differ
	// in variability, so the threshold adapts per profile (§5.1 pass 2).
	covs := make([]float64, len(candidates))
	for i, e := range candidates {
		covs[i] = e.CoV()
	}
	base, slack := meanStd(covs)

	set := &MarkerSet{Opts: opts, CovBase: base, CovSlack: slack}
	chosen := map[EdgeKey]bool{}
	threshold := func(avg float64) float64 {
		if opts.FlatCoV {
			return base
		}
		span := (opts.covScale() - 1) * float64(opts.ILower)
		t := (avg - float64(opts.ILower)) / span
		if t < 0 {
			t = 0
		}
		if t > 1 {
			t = 1
		}
		return base + slack*t
	}
	add := func(e *Edge, groupN uint64, forced bool) {
		if chosen[e.Key] {
			return
		}
		chosen[e.Key] = true
		set.Markers = append(set.Markers, Marker{
			Key:    e.Key,
			GroupN: groupN,
			AvgLen: e.Avg() * float64(groupN),
			CoV:    e.CoV(),
			Count:  e.Count(),
			Forced: forced,
		})
	}

	// Pass 2: apply thresholds in reverse depth order.
	pass2 := sp.Child("core.select.pass2", "")
	for _, n := range queue {
		for _, e := range sortedIn(n) {
			if !allowed(e) {
				continue
			}
			if opts.MaxLimit > 0 && e.Max() > float64(opts.MaxLimit) {
				// Everything further up this path is even larger: stop and
				// mark the target's outgoing edges that fit the limit.
				for _, out := range sortedOut(n) {
					if out.Count() == 0 || out.Max() > float64(opts.MaxLimit) {
						continue
					}
					if gn, ok := mergeGroup(g, out, opts); ok {
						add(out, gn, true)
					} else if out.Avg() >= float64(opts.ILower) {
						add(out, 1, true)
					}
				}
				continue
			}
			if e.Avg() >= float64(opts.ILower) && e.CoV() <= threshold(e.Avg()) {
				add(e, 1, false)
				continue
			}
			// Loop-iteration merging: a stable but too-small per-iteration
			// edge can be grouped into runs of GroupN iterations.
			if opts.MaxLimit > 0 && e.CoV() <= threshold(float64(opts.ILower)) {
				if gn, ok := mergeGroup(g, e, opts); ok && gn > 1 {
					add(e, gn, false)
				}
			}
		}
	}
	pass2.End()
	sort.Slice(set.Markers, func(i, j int) bool {
		return set.Markers[i].Key.String() < set.Markers[j].Key.String()
	})
	obsSelectSelected.Add(uint64(len(set.Markers)))
	for _, m := range set.Markers {
		if m.Forced {
			obsSelectForced.Inc()
		}
		if m.GroupN > 1 {
			obsSelectMerged.Inc()
		}
	}
	if opts.Minimize {
		set, _ = MinimizeMarkers(g, set)
	}
	return set
}

// mergeGroup computes the iteration-group size for a loop head→body edge
// whose per-iteration average is below ILower: the N within
// [⌈ILower/A⌉, ⌊MaxLimit/A⌋] for which the average iterations-per-entry is
// closest to a multiple of N (§5.2). ok is false if e is not a mergeable
// loop-body edge or no N fits.
func mergeGroup(g *Graph, e *Edge, opts SelectOptions) (uint64, bool) {
	if opts.MaxLimit == 0 ||
		e.From.Key.Kind != LoopHead || e.To.Key.Kind != LoopBody {
		return 0, false
	}
	a := e.Avg()
	if a <= 0 || a >= float64(opts.ILower) {
		return 0, false
	}
	lo := uint64(math.Ceil(float64(opts.ILower) / a))
	hi := uint64(math.Floor(float64(opts.MaxLimit) / a))
	if lo < 2 {
		lo = 2
	}
	if hi < lo {
		return 0, false
	}
	// Average iterations per loop entry.
	var entries uint64
	for _, in := range e.From.In {
		entries += in.Count()
	}
	if entries == 0 {
		return 0, false
	}
	avgIters := float64(e.Count()) / float64(entries)
	bestN, bestRem := lo, math.Inf(1)
	if hi > lo+4096 {
		hi = lo + 4096 // bound the scan; remainders repeat in practice
	}
	for n := lo; n <= hi; n++ {
		rem := math.Mod(avgIters, float64(n))
		// Distance to the nearest multiple of n, normalized.
		if rem > float64(n)/2 {
			rem = float64(n) - rem
		}
		rem /= float64(n)
		if rem < bestRem {
			bestRem, bestN = rem, n
		}
	}
	return bestN, true
}

func sortedIn(n *Node) []*Edge {
	es := append([]*Edge(nil), n.In...)
	sort.Slice(es, func(i, j int) bool { return es[i].Key.String() < es[j].Key.String() })
	return es
}

func sortedOut(n *Node) []*Edge {
	es := append([]*Edge(nil), n.Out...)
	sort.Slice(es, func(i, j int) bool { return es[i].Key.String() < es[j].Key.String() })
	return es
}

// meanStd is the population mean and standard deviation of xs, in two
// passes: a one-pass stats.Welford fold may round differently, and the
// selection goldens pin these bits.
func meanStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	var m2 float64
	for _, x := range xs {
		d := x - mean
		m2 += d * d
	}
	return mean, math.Sqrt(m2 / float64(len(xs)))
}
