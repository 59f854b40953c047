package service

import (
	"context"
	"fmt"

	"phasemark/internal/core"
	"phasemark/internal/minivm"
	"phasemark/internal/obs"
	"phasemark/internal/simpoint"
	"phasemark/internal/store"
	"phasemark/internal/trace"
	"phasemark/internal/uarch"
	"phasemark/internal/workloads"
)

// Request-scoped span names for the pipeline stages. Every stage access
// — cached or not — gets a span tagged "cache" with the memo outcome
// (hit | computed | joined), so a request's trace shows both where time
// went and why (a 200µs pipeline.trace with cache=hit is a memo lookup;
// the same span with cache=computed is a full interpreter run). Exported
// alongside store.Span* so telemetry consumers name stages consistently.
const (
	SpanProg    = "pipeline.prog"
	SpanGraph   = "pipeline.graph"
	SpanMarkers = "pipeline.markers"
	SpanTrace   = "pipeline.trace"
	SpanProject = "pipeline.project"
	SpanCluster = "pipeline.cluster"
)

// Response schema tags. These version the response layout independently of
// the request encoding (apiVersion): a response-only change bumps these
// and apiVersion together, since stored artifacts are response bytes.
const (
	SchemaProfile = "phased/profile/v1"
	SchemaSelect  = "phased/select/v1"
	SchemaSegment = "phased/segment/v1"
	SchemaCluster = "phased/cluster/v1"
	SchemaBatch   = "phased/batch/v1"
)

// ProfileResponse reports the call-loop graph of one profiled execution.
type ProfileResponse struct {
	Schema  string         `json:"schema"`
	Request ProfileRequest `json:"request"`
	Nodes   int            `json:"nodes"`
	Edges   int            `json:"edges"`
	// Graph is the stable-order dump of the call-loop graph (node labels,
	// depths, per-edge count/avg/CoV/max annotations).
	Graph string `json:"graph"`
}

// MarkerInfo is one selected marker in a SelectResponse.
type MarkerInfo struct {
	Edge   string  `json:"edge"` // stable EdgeKey rendering
	GroupN uint64  `json:"group_n"`
	AvgLen float64 `json:"avg_len"`
	CoV    float64 `json:"cov"`
	Count  uint64  `json:"count"`
	Forced bool    `json:"forced"`
}

// SelectResponse reports a selected marker set and its thresholds.
type SelectResponse struct {
	Schema   string        `json:"schema"`
	Request  SelectRequest `json:"request"`
	CovBase  float64       `json:"cov_base"`
	CovSlack float64       `json:"cov_slack"`
	Markers  []MarkerInfo  `json:"markers"`
}

// IntervalInfo is one execution interval in a SegmentResponse.
type IntervalInfo struct {
	Start uint64  `json:"start"`
	End   uint64  `json:"end"`
	Phase int     `json:"phase"` // marker index, or -1 for the prologue / fixed cuts
	CPI   float64 `json:"cpi"`
}

// SegmentResponse reports a segmented, measured execution.
type SegmentResponse struct {
	Schema       string         `json:"schema"`
	Request      SegmentRequest `json:"request"`
	Instructions uint64         `json:"instructions"`
	MarkerFires  uint64         `json:"marker_fires"`
	TrueCPI      float64        `json:"true_cpi"`
	Intervals    []IntervalInfo `json:"intervals"`
}

// PointInfo is one chosen simulation point in a ClusterResponse.
type PointInfo struct {
	Cluster  int     `json:"cluster"`
	Interval int     `json:"interval"`
	Weight   float64 `json:"weight"`
}

// ClusterResponse reports a SimPoint phase classification.
type ClusterResponse struct {
	Schema       string         `json:"schema"`
	Request      ClusterRequest `json:"request"`
	K            int            `json:"k"`
	BIC          float64        `json:"bic"`
	Intervals    int            `json:"intervals"`
	Weights      []float64      `json:"weights"`
	Assign       []int          `json:"assign"`
	Points       []PointInfo    `json:"points"`
	EstimatedCPI float64        `json:"estimated_cpi"`
	TrueCPI      float64        `json:"true_cpi"`
	RelError     float64        `json:"rel_error"`
	SimulatedIns uint64         `json:"simulated_instructions"`
}

// Encode renders a response in the service's canonical byte form (compact
// JSON plus one trailing newline) — the bytes that are stored, served, and
// compared by the byte-identity tests.
func Encode(v any) []byte {
	return append(mustJSON(v), '\n')
}

// NewProfileResponse builds the response for a canonical request from its
// computed artifact. Exported (with its siblings below) so tests can
// compose expected responses from artifacts computed directly via
// core/trace/simpoint — the in-process spexp path — and compare bytes.
func NewProfileResponse(req ProfileRequest, g *core.Graph) *ProfileResponse {
	return &ProfileResponse{
		Schema:  SchemaProfile,
		Request: req,
		Nodes:   len(g.Nodes),
		Edges:   len(g.Edges),
		Graph:   g.Dump(),
	}
}

// NewSelectResponse builds the response for a canonical request from its
// computed marker set.
func NewSelectResponse(req SelectRequest, set *core.MarkerSet) *SelectResponse {
	resp := &SelectResponse{
		Schema:   SchemaSelect,
		Request:  req,
		CovBase:  set.CovBase,
		CovSlack: set.CovSlack,
		Markers:  []MarkerInfo{}, // render [] rather than null for empty sets
	}
	for _, m := range set.Markers {
		resp.Markers = append(resp.Markers, MarkerInfo{
			Edge:   m.Key.String(),
			GroupN: m.GroupN,
			AvgLen: m.AvgLen,
			CoV:    m.CoV,
			Count:  m.Count,
			Forced: m.Forced,
		})
	}
	return resp
}

// NewSegmentResponse builds the response for a canonical request from its
// traced execution. The service renders its memoized Pipeline.Trace
// result with it; the byte-identity tests render a materializing
// trace.Run with it and compare.
func NewSegmentResponse(req SegmentRequest, res *trace.Result) *SegmentResponse {
	resp := &SegmentResponse{
		Schema:       SchemaSegment,
		Request:      req,
		Instructions: res.Instructions,
		MarkerFires:  res.MarkerFires,
		TrueCPI:      res.TrueCPI(),
		Intervals:    make([]IntervalInfo, 0, len(res.Intervals)),
	}
	for _, iv := range res.Intervals {
		resp.Intervals = append(resp.Intervals, IntervalInfo{
			Start: iv.Start,
			End:   iv.End,
			Phase: iv.PhaseID,
			CPI:   iv.CPI(),
		})
	}
	return resp
}

// NewClusterResponse builds the response for a canonical request from its
// traced execution and the simpoint.Classify clustering of it. The
// byte-identity tests compose expected responses with it; the service
// renders through the same code (clusterResponse), passing the points it
// projected itself.
func NewClusterResponse(req ClusterRequest, res *trace.Result, c *simpoint.Clustering) *ClusterResponse {
	return clusterResponse(req, res, c, c.Points())
}

// clusterResponse builds the response for a clustering of res's intervals
// projected to points.
func clusterResponse(req ClusterRequest, res *trace.Result, c *simpoint.Clustering, points simpoint.Matrix) *ClusterResponse {
	pts := simpoint.PickPoints(c, points)
	est := simpoint.Evaluate(pts, res.Intervals, res.TrueCPI(), c.K)
	resp := &ClusterResponse{
		Schema:       SchemaCluster,
		Request:      req,
		K:            c.K,
		BIC:          c.BIC,
		Intervals:    len(res.Intervals),
		Weights:      c.Weights,
		Assign:       c.Assign,
		Points:       []PointInfo{},
		EstimatedCPI: est.EstimatedCPI,
		TrueCPI:      est.TrueCPI,
		RelError:     est.RelativeError,
		SimulatedIns: est.SimulatedIns,
	}
	for _, p := range pts {
		resp.Points = append(resp.Points, PointInfo{Cluster: p.Cluster, Interval: p.Interval, Weight: p.Weight})
	}
	return resp
}

// ClusterOptions maps a canonical cluster request onto simpoint.Options —
// one place, so the service and the byte-identity tests cannot drift.
func ClusterOptions(req ClusterRequest) simpoint.Options {
	return simpoint.Options{
		KMax:     req.KMax,
		Dims:     req.Dims,
		Seed:     req.Seed,
		Restarts: req.Restarts,
		MaxIters: req.MaxIters,
	}
}

// SelectOptions maps a canonical select spec onto core.SelectOptions.
func (s SelectSpec) SelectOptions() core.SelectOptions {
	return core.SelectOptions{
		ILower:    s.ILower,
		MaxLimit:  s.MaxLimit,
		ProcsOnly: s.ProcsOnly,
		CovScale:  s.CovScale,
		MinCount:  s.MinCount,
		Minimize:  s.Minimize,
	}
}

// graphKey identifies a memoized profiled graph.
type graphKey struct {
	workload string
	input    string
}

// Pipeline computes responses for canonical requests over the existing
// pipeline packages, memoizing every expensive intermediate artifact with
// singleflight semantics (store.Memo): compiled programs per workload,
// profiled graphs per (workload, input), marker sets per select request,
// and traced executions per segment request. The traced execution is the
// only interpreter run behind a segment: Segment renders it, and every
// cluster request over it projects and clusters its BBVs afresh, which
// costs a small fraction of the run. Projections and clusterings are not
// memoized — the response bytes themselves live in the artifact store.
//
// Memory grows with the set of distinct segments requested over the
// process lifetime: one *trace.Result each, whose sparse BBVs hold at
// most the program's static block count of entries per interval.
type Pipeline struct {
	// traceWorkers is the trace.Config.Workers of the interpreter run
	// behind Trace: New sets the share of the machine each of the gate's
	// concurrently executing requests gets (par.Share); the zero value
	// is trace's default, the whole machine. The traced result, and so
	// every response byte, is the same at any value.
	traceWorkers int

	progs  store.Memo[string, *minivm.Program]
	graphs store.Memo[graphKey, *core.Graph]
	sets   store.Memo[store.Key, *core.MarkerSet]
	traces store.Memo[store.Key, *trace.Result]
}

// stage wraps one memoized stage access in a request-scoped span tagged
// with its cache outcome. The compute closure runs (on the flight
// leader's goroutine only) under a context whose span is the stage span,
// so dependency stages nest beneath it in that request's tree.
func stage[K comparable, V any](ctx context.Context, m *store.Memo[K, V], name, arg string, k K,
	compute func(context.Context) (V, error)) (V, error) {
	sp := obs.SpanFromContext(ctx).Child(name, arg)
	cctx := obs.ContextWithSpan(ctx, sp)
	v, out, err := m.DoOutcome(k, func() (V, error) { return compute(cctx) })
	sp.SetTag("cache", out.String())
	sp.End()
	return v, err
}

// prog compiles (memoized) the named workload.
func (p *Pipeline) prog(ctx context.Context, name string) (*workloads.Workload, *minivm.Program, error) {
	w, err := workloads.ByName(name)
	if err != nil {
		return nil, nil, reqErrf("unknown workload %q", name)
	}
	prog, err := stage(ctx, &p.progs, SpanProg, name, name,
		func(context.Context) (*minivm.Program, error) {
			return w.Compile(false)
		})
	if err != nil {
		return nil, nil, err
	}
	return w, prog, nil
}

// Graph profiles (memoized) the workload on the named input.
func (p *Pipeline) Graph(ctx context.Context, workload, input string) (*core.Graph, error) {
	w, prog, err := p.prog(ctx, workload)
	if err != nil {
		return nil, err
	}
	return stage(ctx, &p.graphs, SpanGraph, workload+"/"+input, graphKey{workload, input},
		func(context.Context) (*core.Graph, error) {
			args := w.Train
			if input == InputRef {
				args = w.Ref
			}
			g, err := core.ProfileRun(prog, args...)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", workload, err)
			}
			return g, nil
		})
}

// Markers selects (memoized) the marker set for a canonical request.
func (p *Pipeline) Markers(ctx context.Context, req SelectRequest) (*core.MarkerSet, error) {
	return stage(ctx, &p.sets, SpanMarkers, req.Workload, req.Key(),
		func(cctx context.Context) (*core.MarkerSet, error) {
			g, err := p.Graph(cctx, req.Workload, req.Input)
			if err != nil {
				return nil, err
			}
			return core.SelectMarkers(g, req.Options.SelectOptions()), nil
		})
}

// segConfig assembles the trace configuration for a canonical segment
// request.
func (p *Pipeline) segConfig(ctx context.Context, req SegmentRequest) (trace.Config, error) {
	w, prog, err := p.prog(ctx, req.Workload)
	if err != nil {
		return trace.Config{}, err
	}
	cfg := trace.Config{Prog: prog, Args: w.Ref, CPU: uarch.DefaultConfig()}
	if req.FixedLen > 0 {
		cfg.FixedLen = req.FixedLen
	} else {
		set, err := p.Markers(ctx, *req.Select)
		if err != nil {
			return trace.Config{}, err
		}
		cfg.Markers = set
	}
	return cfg, nil
}

// Trace runs (memoized) the segmented ref execution for a canonical
// request, BBVs included.
func (p *Pipeline) Trace(ctx context.Context, req SegmentRequest) (*trace.Result, error) {
	return stage(ctx, &p.traces, SpanTrace, req.Workload, req.Key(),
		func(cctx context.Context) (*trace.Result, error) {
			cfg, err := p.segConfig(cctx, req)
			if err != nil {
				return nil, err
			}
			cfg.Workers = p.traceWorkers
			res, err := trace.Run(cfg)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", req.Workload, err)
			}
			return res, nil
		})
}

// computedSpan opens the span of an unmemoized stage, whose cache
// outcome is always computed.
func computedSpan(ctx context.Context, name, arg string) *obs.Span {
	sp := obs.SpanFromContext(ctx).Child(name, arg)
	sp.SetTag("cache", store.Computed.String())
	return sp
}

// Profile computes the response bytes for a canonical profile request.
func (p *Pipeline) Profile(ctx context.Context, req ProfileRequest) ([]byte, error) {
	g, err := p.Graph(ctx, req.Workload, req.Input)
	if err != nil {
		return nil, err
	}
	return Encode(NewProfileResponse(req, g)), nil
}

// Select computes the response bytes for a canonical select request.
func (p *Pipeline) Select(ctx context.Context, req SelectRequest) ([]byte, error) {
	set, err := p.Markers(ctx, req)
	if err != nil {
		return nil, err
	}
	return Encode(NewSelectResponse(req, set)), nil
}

// Segment computes the response bytes for a canonical segment request
// from the memoized traced execution.
func (p *Pipeline) Segment(ctx context.Context, req SegmentRequest) ([]byte, error) {
	res, err := p.Trace(ctx, req)
	if err != nil {
		return nil, err
	}
	return Encode(NewSegmentResponse(req, res)), nil
}

// Cluster computes the response bytes for a canonical cluster request:
// it projects and clusters the memoized traced execution's intervals the
// way simpoint.Classify does, so the bytes match the reference path.
// Neither step is memoized, so their spans are always cache=computed.
func (p *Pipeline) Cluster(ctx context.Context, req ClusterRequest) ([]byte, error) {
	res, err := p.Trace(ctx, req.Segment)
	if err != nil {
		return nil, err
	}
	sp := computedSpan(ctx, SpanProject, req.Segment.Workload)
	pts, weights := simpoint.ProjectIntervals(res.Intervals, res.NumBlocks, req.Dims, req.Seed)
	sp.End()
	sp = computedSpan(ctx, SpanCluster, req.Segment.Workload)
	c := simpoint.Cluster(pts, weights, ClusterOptions(req))
	sp.End()
	return Encode(clusterResponse(req, res, c, pts)), nil
}
