// Package artifact is the one memo layer for the paper's artifact chain:
// a workload's compiled program, its call-loop graph on an input, a
// marker set selected on that graph, and its ref run traced into
// intervals (§5, §6). The experiments suite behind spexp and phased's
// pipeline both call it, so an artifact is built once per process
// whichever of them asks, and both report it the same way.
//
// Keys are value structs that name every input of their artifact
// (Select, Segment), so two requests share an artifact exactly when
// they would compute the same one. Every memo follows store.Memo's
// contract: the first caller of a key computes, concurrent callers join
// that flight, a successful value is kept for the Pipeline's lifetime,
// and errors are not cached. A compute may ask for other keys (a trace
// asks for its marker set, which asks for its graph), never for its own.
//
// Memory grows with the set of distinct artifacts asked for over the
// Pipeline's lifetime: one *trace.Result per segment, whose sparse BBVs
// hold at most the program's static block count of entries per interval.
package artifact

import (
	"context"
	"fmt"

	"phasemark/internal/core"
	"phasemark/internal/minivm"
	"phasemark/internal/obs"
	"phasemark/internal/store"
	"phasemark/internal/trace"
	"phasemark/internal/uarch"
	"phasemark/internal/workloads"
)

// Span names of the memoized stages. Every access, cached or not, is a
// span tagged "cache" with its memo outcome (hit | computed | joined):
// a pipeline.trace span with cache=hit is a memo lookup, the same span
// with cache=computed a full interpreter run.
const (
	SpanProg    = "pipeline.prog"
	SpanGraph   = "pipeline.graph"
	SpanMarkers = "pipeline.markers"
	SpanTrace   = "pipeline.trace"
)

// Process-wide outcome counts of every Do. A failed compute counts as
// computed and as compute_err; a caller that joined a failed flight
// counts as join_err, apart from joined (it shared the leader's error
// and did no work) and from the retry the next caller computes.
var (
	obsHit        = obs.NewCounter("artifact.hit")
	obsComputed   = obs.NewCounter("artifact.computed")
	obsJoined     = obs.NewCounter("artifact.joined")
	obsJoinErr    = obs.NewCounter("artifact.join_err")
	obsComputeErr = obs.NewCounter("artifact.compute_err")
)

// Do returns k's value from m: cached, joined from the caller already
// computing it, or computed here. The access is a child of ctx's span
// named name, tagged with its outcome, and compute runs under it, so
// the artifacts compute asks for nest beneath it. A ctx that carries no
// span records no span; the outcome counters count either way.
func Do[K comparable, V any](ctx context.Context, m *store.Memo[K, V], name, arg string, k K,
	compute func(context.Context) (V, error)) (V, error) {
	sp := obs.SpanFromContext(ctx).Child(name, arg)
	cctx := obs.ContextWithSpan(ctx, sp)
	v, out, err := m.DoOutcome(k, func() (V, error) { return compute(cctx) })
	sp.SetTag("cache", out.String())
	sp.End()
	switch {
	case out == store.Hit:
		obsHit.Inc()
	case out == store.Joined && err != nil:
		obsJoinErr.Inc()
	case out == store.Joined:
		obsJoined.Inc()
	default:
		obsComputed.Inc()
		if err != nil {
			obsComputeErr.Inc()
		}
	}
	return v, err
}

// Select names a marker set: the one core.SelectMarkers picks with Opts
// on Workload's call-loop graph, profiled on its ref input when Ref is
// set and on its train input otherwise.
type Select struct {
	Workload string
	Ref      bool
	Opts     core.SelectOptions
}

// Segment names a traced ref run of Workload, BBVs included: cut every
// FixedLen instructions, or, when FixedLen is 0, at the firings of
// Select's marker set. A fixed cut leaves Select zero.
type Segment struct {
	Workload string
	FixedLen uint64
	Select   Select
}

// graphKey names a profiled graph: the workload and its input.
type graphKey struct {
	workload string
	ref      bool
}

// Pipeline memoizes the artifact chain. Build it with New.
type Pipeline struct {
	// workers is the goroutine budget of every interpreter run behind
	// Graph (core.ProfileRunWorkers) and Trace (trace.Config.Workers):
	// the share of the machine (par.Share) each of its caller's
	// concurrent tasks gets. Every artifact is the same at any value.
	workers int

	progs  store.Memo[string, *minivm.Program]
	graphs store.Memo[graphKey, *core.Graph]
	sets   store.Memo[Select, *core.MarkerSet]
	traces store.Memo[Segment, *trace.Result]
}

// New returns an empty Pipeline whose profiles and traces run on
// workers goroutines each.
func New(workers int) *Pipeline {
	return &Pipeline{workers: workers}
}

// Workers reports the goroutine budget of the Pipeline's runs, for a
// caller's own runs of the same programs.
func (p *Pipeline) Workers() int { return p.workers }

// program returns the named workload and its compiled program.
func (p *Pipeline) program(ctx context.Context, name string) (*workloads.Workload, *minivm.Program, error) {
	w, err := workloads.ByName(name)
	if err != nil {
		return nil, nil, err
	}
	prog, err := Do(ctx, &p.progs, SpanProg, name, name,
		func(context.Context) (*minivm.Program, error) {
			return w.Compile(false)
		})
	if err != nil {
		return nil, nil, err
	}
	return w, prog, nil
}

// Program compiles the named workload.
func (p *Pipeline) Program(ctx context.Context, workload string) (*minivm.Program, error) {
	_, prog, err := p.program(ctx, workload)
	return prog, err
}

// Graph profiles the workload's call-loop graph on its ref input, or on
// its train input when ref is false.
func (p *Pipeline) Graph(ctx context.Context, workload string, ref bool) (*core.Graph, error) {
	w, prog, err := p.program(ctx, workload)
	if err != nil {
		return nil, err
	}
	args, input := w.Train, "/train"
	if ref {
		args, input = w.Ref, "/ref"
	}
	return Do(ctx, &p.graphs, SpanGraph, workload+input, graphKey{workload, ref},
		func(context.Context) (*core.Graph, error) {
			g, err := core.ProfileRunWorkers(prog, p.workers, args...)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", workload, err)
			}
			return g, nil
		})
}

// Markers selects the marker set sel names.
func (p *Pipeline) Markers(ctx context.Context, sel Select) (*core.MarkerSet, error) {
	return Do(ctx, &p.sets, SpanMarkers, sel.Workload, sel,
		func(cctx context.Context) (*core.MarkerSet, error) {
			g, err := p.Graph(cctx, sel.Workload, sel.Ref)
			if err != nil {
				return nil, err
			}
			return core.SelectMarkers(g, sel.Opts), nil
		})
}

// Config assembles seg's trace configuration: the workload's ref run on
// the default CPU model at the Pipeline's worker budget, cut as seg
// says. It is the one place a segment's configuration is built; Trace
// runs it, and a caller may run it again another way (streamed, at
// another worker count) to compare against Trace's result.
func (p *Pipeline) Config(ctx context.Context, seg Segment) (trace.Config, error) {
	w, prog, err := p.program(ctx, seg.Workload)
	if err != nil {
		return trace.Config{}, err
	}
	cfg := trace.Config{Prog: prog, Args: w.Ref, CPU: uarch.DefaultConfig(), FixedLen: seg.FixedLen, Workers: p.workers}
	if seg.FixedLen == 0 {
		if cfg.Markers, err = p.Markers(ctx, seg.Select); err != nil {
			return trace.Config{}, err
		}
	}
	return cfg, nil
}

// Trace runs seg: one materializing trace.Run of its Config, BBVs
// included.
func (p *Pipeline) Trace(ctx context.Context, seg Segment) (*trace.Result, error) {
	return Do(ctx, &p.traces, SpanTrace, seg.Workload, seg,
		func(cctx context.Context) (*trace.Result, error) {
			cfg, err := p.Config(cctx, seg)
			if err != nil {
				return nil, err
			}
			res, err := trace.Run(cfg)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", seg.Workload, err)
			}
			return res, nil
		})
}
