// Package obs is the repository's observability layer: a dependency-light
// metrics registry (named counters, gauges, and log-scale histograms) plus
// stage tracing with one span type, Span, shared by every stage of the
// profile → graph → marker-selection → segmentation → SimPoint pipeline
// and by the phased request path.
//
// Design constraints, in order:
//
//   - The hot increment path is one atomic add on a handle the caller
//     resolved once — no map lookup, no allocation, no lock.
//   - Everything is race-safe: instrumented code runs on the experiment
//     engine's worker pool at arbitrary -j.
//   - Observability never writes to stdout. The rendered figure tables are
//     pinned byte-for-byte by the golden-table test; metrics go to stderr
//     or to files the caller names explicitly.
//   - Snapshots are deterministically ordered (sorted by name), so metrics
//     files diff cleanly run-to-run even though their values vary.
//
// The package-level functions operate on a process-wide default registry
// and tracer, which is what the instrumented packages use. Tests (and any
// embedder wanting isolation) build their own Registry / Tracer.
//
// Span-duration aggregation is always on — it is a map update per stage
// completion, far off any hot path. Individual Chrome trace_event capture
// is off until SetTraceCapture(true), because a full `spexp -fig all` run
// completes tens of thousands of spans.
package obs

import "io"

var (
	defaultRegistry = NewRegistry()
	defaultTracer   = NewTracer()
)

// NewCounter finds or creates the named counter in the default registry.
// Resolve once (package var or local), then Add on the handle.
func NewCounter(name string) *Counter { return defaultRegistry.Counter(name) }

// NewGauge finds or creates the named gauge in the default registry.
func NewGauge(name string) *Gauge { return defaultRegistry.Gauge(name) }

// NewHist finds or creates the named log-scale histogram in the default
// registry.
func NewHist(name string) *Histogram { return defaultRegistry.Hist(name) }

// StartSpan starts a root span on the default tracer. arg labels the unit
// of work (typically the workload name); it may be empty.
func StartSpan(name, arg string) *Span { return defaultTracer.StartSpan(name, arg) }

// SetTraceCapture enables or disables Chrome trace_event capture on the
// default tracer. Stage-duration aggregation is unaffected (always on).
func SetTraceCapture(on bool) { defaultTracer.SetCapture(on) }

// Snapshot captures the default registry and tracer into one
// deterministically ordered snapshot.
func Snapshot() *Snap {
	s := defaultRegistry.Snapshot()
	s.Stages = defaultTracer.Stages()
	return s
}

// WriteMetrics writes the default snapshot as indented JSON.
func WriteMetrics(w io.Writer) error { return Snapshot().WriteJSON(w) }

// WriteSummary writes the default snapshot as a human-readable table
// (intended for stderr).
func WriteSummary(w io.Writer) { Snapshot().WriteSummary(w) }

// WriteChromeTrace writes every captured trace event from the default
// tracer in Chrome trace_event JSON format (load in chrome://tracing or
// https://ui.perfetto.dev).
func WriteChromeTrace(w io.Writer) error { return defaultTracer.WriteChromeTrace(w) }
