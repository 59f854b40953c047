package trace

import (
	"sort"

	"phasemark/internal/stats"
)

// Metric extracts a per-interval behavior metric (CPI, miss rate, ...).
type Metric func(*Interval) float64

// CPIMetric is the cycles-per-instruction metric.
func CPIMetric(iv *Interval) float64 { return iv.CPI() }

// DL1MissMetric is the L1 data-cache miss-rate metric.
func DL1MissMetric(iv *Interval) float64 { return iv.Perf.L1MissRate() }

// PhaseCoVResult summarizes a phase classification's homogeneity.
type PhaseCoVResult struct {
	// CoV is the overall coefficient of variation: per-phase CoVs
	// (intervals weighted by instruction count) averaged across phases
	// weighted by phase instruction mass.
	CoV float64
	// Phases is the number of distinct phase IDs observed.
	Phases int
	// Intervals is the number of intervals classified.
	Intervals int
	// AvgIntervalLen is the weighted... plain mean interval length.
	AvgIntervalLen float64
}

// CoVAccumulator computes the §3.1 homogeneity metric in one pass with
// O(phases) working memory: feed it intervals (or whole streamed chunks)
// as they are cut and ask for the Result at the end. It never retains an
// interval, so it composes with trace.Config.Sink for bounded-memory
// runs; PhaseCoV is the materialized-slice convenience wrapper.
type CoVAccumulator struct {
	phaseOf  func(*Interval) int
	metric   Metric
	groups   map[int]*stats.Weighted
	totalLen float64
	n        int
}

// NewCoVAccumulator builds a single-pass accumulator. phaseOf maps an
// interval to its phase ID (IntervalPhase for marker-assigned IDs, or a
// clustering's assignment for BBV baselines); metric extracts the
// per-interval behavior measure.
func NewCoVAccumulator(phaseOf func(*Interval) int, metric Metric) *CoVAccumulator {
	return &CoVAccumulator{phaseOf: phaseOf, metric: metric, groups: map[int]*stats.Weighted{}}
}

// Observe folds one interval into the per-phase statistics. Nothing in iv
// is retained.
func (a *CoVAccumulator) Observe(iv *Interval) {
	id := a.phaseOf(iv)
	g := a.groups[id]
	if g == nil {
		g = &stats.Weighted{}
		a.groups[id] = g
	}
	w := float64(iv.Len())
	g.Add(a.metric(iv), w)
	a.totalLen += w
	a.n++
}

// ObserveChunk folds a streamed chunk (a trace.Config.Sink payload).
func (a *CoVAccumulator) ObserveChunk(chunk []Interval) {
	for i := range chunk {
		a.Observe(&chunk[i])
	}
}

// Result summarizes the observations so far. Phases fold in ascending
// phase-ID order, so the floating-point summation order — and hence the
// exact CoV — is a deterministic function of the observations, not of
// map iteration order.
func (a *CoVAccumulator) Result() PhaseCoVResult {
	ids := make([]int, 0, len(a.groups))
	for id := range a.groups {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var covSum, wSum float64
	for _, id := range ids {
		g := a.groups[id]
		covSum += g.CoV() * g.WeightSum()
		wSum += g.WeightSum()
	}
	res := PhaseCoVResult{Phases: len(a.groups), Intervals: a.n}
	if wSum > 0 {
		res.CoV = covSum / wSum
	}
	if a.n > 0 {
		res.AvgIntervalLen = a.totalLen / float64(a.n)
	}
	return res
}

// PhaseCoV measures classification homogeneity per §3.1: for each phase,
// compute the instruction-weighted mean and standard deviation of the
// metric over the phase's intervals and divide to get the phase CoV; then
// average the per-phase CoVs across phases (weighted by phase size) for
// the overall CoV. Lower is better; N intervals in N phases trivially
// yield zero, so Phases and Intervals are reported alongside.
//
// phaseOf maps an interval to its phase ID (pass IntervalPhase to use the
// marker-assigned IDs, or a clustering's assignment for BBV baselines).
func PhaseCoV(ivs []*Interval, phaseOf func(*Interval) int, metric Metric) PhaseCoVResult {
	acc := NewCoVAccumulator(phaseOf, metric)
	for _, iv := range ivs {
		acc.Observe(iv)
	}
	return acc.Result()
}

// IntervalPhase uses the phase ID assigned at segmentation time (the
// marker that began the interval).
func IntervalPhase(iv *Interval) int { return iv.PhaseID }

// WholeProgramCoV treats the entire execution as a single phase — the
// paper's "whole program" variability baseline in Figure 9.
func WholeProgramCoV(ivs []*Interval, metric Metric) float64 {
	return PhaseCoV(ivs, func(*Interval) int { return 0 }, metric).CoV
}
