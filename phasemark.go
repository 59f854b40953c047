// Package phasemark selects software phase markers with code structure
// analysis, reproducing Lau, Perelman & Calder (CGO 2006).
//
// A software phase marker is an instrumentable location in a binary — a
// call site, a loop entry, or a loop back edge — whose execution reliably
// signals the start of an interval of repeating, homogeneous program
// behavior. Markers are found by profiling one execution into a
// hierarchical call-loop graph (procedure and loop head/body nodes whose
// edges carry count / mean / max / standard deviation of the hierarchical
// dynamic instruction count per traversal) and running a fast two-pass
// selection algorithm over the graph. Once selected, markers detect phase
// changes on any input with no hardware support, and can be mapped across
// different compilations of the same source.
//
// The typical pipeline:
//
//	prog, _ := phasemark.CompileSource(src, false) // or bring your own IR
//	graph, _ := phasemark.Profile(prog, trainArgs...)
//	markers := phasemark.Select(graph, phasemark.SelectOptions{ILower: 100_000})
//	result, _ := phasemark.Segment(prog, markers, refArgs...)
//	cov := phasemark.PhaseCoV(result.Intervals, phasemark.IntervalPhase, phasemark.CPIMetric)
//
// Subsystems live in internal packages: internal/core (graph + selection),
// internal/minivm (the register-machine IR and interpreter standing in for
// ATOM-instrumented binaries), internal/compile + internal/lang (the mini
// language the synthetic SPEC-analog workloads are written in),
// internal/trace (interval segmentation and metrics), internal/simpoint
// (weighted k-means + BIC), internal/uarch (cache/branch timing model),
// internal/reuse (the reuse-distance marker baseline), internal/adapt
// (adaptive cache reconfiguration), internal/crossbin (marker mapping
// across compilations), and internal/experiments (one harness per paper
// figure).
package phasemark

import (
	"phasemark/internal/compile"
	"phasemark/internal/core"
	"phasemark/internal/crossbin"
	"phasemark/internal/minivm"
	"phasemark/internal/trace"
	"phasemark/internal/uarch"
)

// Re-exported core types: the call-loop graph and marker selection.
type (
	// Graph is the hierarchical call-loop graph built from a profiled run.
	Graph = core.Graph
	// Node is a graph node (procedure or loop, head or body).
	Node = core.Node
	// Edge is a graph edge with hierarchical instruction-count statistics.
	Edge = core.Edge
	// EdgeKey stably names an edge (and thus a marker location) in a binary.
	EdgeKey = core.EdgeKey
	// Marker is one selected software phase marker.
	Marker = core.Marker
	// MarkerSet is the result of marker selection.
	MarkerSet = core.MarkerSet
	// SelectOptions configures the selection algorithm (ILower, MaxLimit,
	// ProcsOnly, ...).
	SelectOptions = core.SelectOptions
	// Program is the executable IR (the "binary" being analyzed).
	Program = minivm.Program
	// Result is a segmented, measured execution.
	Result = trace.Result
	// Interval is one slice of execution with its BBV and timing counters.
	Interval = trace.Interval
)

// Metric helpers re-exported from internal/trace.
var (
	// CPIMetric extracts cycles-per-instruction from an interval.
	CPIMetric = trace.CPIMetric
	// DL1MissMetric extracts the data-cache miss rate from an interval.
	DL1MissMetric = trace.DL1MissMetric
	// IntervalPhase maps an interval to the marker-assigned phase ID.
	IntervalPhase = trace.IntervalPhase
)

// PhaseCoV measures the homogeneity of a phase classification: the
// instruction-weighted coefficient of variation of a metric within each
// phase, averaged across phases (paper §3.1). Lower is better.
func PhaseCoV(ivs []*Interval, phaseOf func(*Interval) int, metric trace.Metric) trace.PhaseCoVResult {
	return trace.PhaseCoV(ivs, phaseOf, metric)
}

// CompileSource compiles mini-language source text to an executable
// program; optimize selects the optimizing build (different basic-block
// structure, observably identical behavior).
func CompileSource(src string, optimize bool) (*Program, error) {
	return compile.CompileSource(src, compile.Options{Optimize: optimize})
}

// Profile executes prog on args and returns its call-loop graph — the
// paper's ATOM profiling step.
func Profile(prog *Program, args ...int64) (*Graph, error) {
	return core.ProfileRun(prog, args...)
}

// Select runs the two-pass marker selection algorithm (§5) on a profiled
// graph.
func Select(g *Graph, opts SelectOptions) *MarkerSet {
	return core.SelectMarkers(g, opts)
}

// Segment executes prog on args under the default timing model, cutting a
// variable-length interval at every marker firing, and returns the
// measured intervals (phase ID = the marker that began each interval).
func Segment(prog *Program, set *MarkerSet, args ...int64) (*Result, error) {
	return trace.Run(trace.Config{
		Prog:    prog,
		Args:    args,
		CPU:     uarch.DefaultConfig(),
		Markers: set,
	})
}

// SegmentFixed is Segment with fixed-length intervals (the prior-work
// baseline); phase IDs must be assigned afterwards (e.g. by clustering).
func SegmentFixed(prog *Program, length uint64, args ...int64) (*Result, error) {
	return trace.Run(trace.Config{
		Prog:     prog,
		Args:     args,
		CPU:      uarch.DefaultConfig(),
		FixedLen: length,
	})
}

// MapMarkers rebinds markers selected on one compilation of a source
// program to another compilation, using source-position debug info
// (paper §6.2.1). It returns the mapped set and how many markers mapped.
func MapMarkers(set *MarkerSet, from, to *Program) (*MarkerSet, int, error) {
	mapped, rep := crossbin.MapMarkers(set, from, to)
	return mapped, rep.Mapped, nil
}

// MarkerTrace runs prog with the marker set and returns the ordered
// sequence of marker firings — comparable across compilations of the same
// source on the same input.
func MarkerTrace(prog *Program, set *MarkerSet, args ...int64) ([]int, error) {
	return crossbin.Trace(prog, set, args...)
}
