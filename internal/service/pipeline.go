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

// NewSegmentResponse builds the response for a canonical request from a
// materialized traced execution. The service itself serves segment
// responses from the streamed TraceArtifact (see Segment); this builder
// is the materializing reference the byte-identity tests compare against.
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

// NewClusterResponse builds the response for a canonical request from a
// materialized traced execution and its clustering. Like
// NewSegmentResponse it is the materializing reference: the service
// builds cluster responses from the streamed ProjArtifact (see Cluster),
// and the byte-identity tests pin the two paths together.
func NewClusterResponse(req ClusterRequest, res *trace.Result, c *simpoint.Clustering) *ClusterResponse {
	pts := simpoint.PickPoints(c, c.Points())
	est := simpoint.Evaluate(pts, res.Intervals, res.TrueCPI(), c.K)
	return clusterResponse(req, c, len(res.Intervals), pts, est)
}

// newClusterResponseFromArtifact builds the response the service serves:
// same clustering engine, fed from the streamed projection artifact.
func newClusterResponseFromArtifact(req ClusterRequest, art *ProjArtifact, c *simpoint.Clustering) *ClusterResponse {
	pts := simpoint.PickPoints(c, art.Pts)
	est := evaluateArtifact(pts, art.Intervals, art.TrueCPI, c.K)
	return clusterResponse(req, c, len(art.Intervals), pts, est)
}

// clusterResponse assembles the response struct shared by the reference
// and artifact paths.
func clusterResponse(req ClusterRequest, c *simpoint.Clustering, intervals int, pts []simpoint.Point, est simpoint.Estimate) *ClusterResponse {
	resp := &ClusterResponse{
		Schema:       SchemaCluster,
		Request:      req,
		K:            c.K,
		BIC:          c.BIC,
		Intervals:    intervals,
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

// projKey identifies a memoized projection artifact: the segment it
// summarizes plus the projection parameters (cluster requests with the
// same segment but different dims/seed need different matrices).
type projKey struct {
	segment store.Key
	dims    int
	seed    uint64
}

// Pipeline computes responses for canonical requests over the existing
// pipeline packages, memoizing every expensive intermediate artifact with
// singleflight semantics (store.Memo): compiled programs per workload,
// profiled graphs per (workload, input), marker sets per select request,
// and — instead of full traced executions — compact streaming artifacts:
// per-interval summaries per segment request (TraceArtifact) and
// projected point matrices per cluster parameterization (ProjArtifact).
// Both are folded online from the tracer's chunked emission, so no
// request ever materializes an O(trace) interval slice; working memory is
// O(intervals) summaries plus O(intervals·dims) projections.
// Clusterings are cheap relative to the artifacts they consume and are
// not memoized — the response bytes themselves live in the artifact
// store.
//
// Memory grows with the set of *distinct* artifacts requested over the
// process lifetime, but each artifact is now the compact residue the
// response needs, not the trace that produced it. Segment and cluster
// requests each stream their own interpreter run (summaries-only vs
// summaries+projection); repeated identical requests are served from the
// content-addressed response store without recomputing anything.
type Pipeline struct {
	// Workers is the pipeline-parallel engine's worker count for the
	// trace-driven stages (Trace, project): 0 keeps the serial streaming
	// path; > 0 decouples trace production from chunk analysis
	// (trace.Config.Workers). Either way the streamed artifacts — and
	// therefore the response bytes — are bit-identical; only latency
	// changes. Set before serving requests; it is not part of any cache
	// key for exactly that reason.
	Workers int

	progs  store.Memo[string, *minivm.Program]
	graphs store.Memo[graphKey, *core.Graph]
	sets   store.Memo[store.Key, *core.MarkerSet]
	traces store.Memo[store.Key, *TraceArtifact]
	projs  store.Memo[projKey, *ProjArtifact]
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
// request (shared by the summary and projection stages) and reports the
// program's static block count for projection sizing.
func (p *Pipeline) segConfig(ctx context.Context, req SegmentRequest) (trace.Config, int, error) {
	w, prog, err := p.prog(ctx, req.Workload)
	if err != nil {
		return trace.Config{}, 0, err
	}
	cfg := trace.Config{Prog: prog, Args: w.Ref, CPU: uarch.DefaultConfig()}
	if req.FixedLen > 0 {
		cfg.FixedLen = req.FixedLen
	} else {
		set, err := p.Markers(ctx, *req.Select)
		if err != nil {
			return trace.Config{}, 0, err
		}
		cfg.Markers = set
	}
	return cfg, prog.NumBlocks, nil
}

// Trace runs (memoized) the segmented ref execution for a canonical
// request, streaming it into a compact TraceArtifact: the tracer emits
// interval chunks into a recycled arena, the sink folds them into
// per-interval summaries, and BBV collection is skipped entirely — the
// segment response doesn't need it, so neither trace nor vectors are
// ever held in memory.
func (p *Pipeline) Trace(ctx context.Context, req SegmentRequest) (*TraceArtifact, error) {
	return stage(ctx, &p.traces, SpanTrace, req.Workload, req.Key(),
		func(cctx context.Context) (*TraceArtifact, error) {
			cfg, _, err := p.segConfig(cctx, req)
			if err != nil {
				return nil, err
			}
			art := &TraceArtifact{}
			cfg.SkipBBV = true
			cfg.Workers = p.Workers
			obs.SpanFromContext(cctx).SetTag("workers", fmt.Sprint(p.Workers))
			cfg.Sink = func(chunk []trace.Interval) error {
				art.observe(chunk)
				return nil
			}
			res, err := trace.Run(cfg)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", req.Workload, err)
			}
			art.finish(res)
			return art, nil
		})
}

// project runs (memoized) the segmented execution for a cluster request,
// streaming it into a ProjArtifact: the same chunked run as Trace, but
// with BBVs collected per chunk and projected online into the point
// matrix before the arena is recycled.
func (p *Pipeline) project(ctx context.Context, req ClusterRequest) (*ProjArtifact, error) {
	k := projKey{segment: req.Segment.Key(), dims: req.Dims, seed: req.Seed}
	return stage(ctx, &p.projs, SpanProject, req.Segment.Workload, k,
		func(cctx context.Context) (*ProjArtifact, error) {
			cfg, numBlocks, err := p.segConfig(cctx, req.Segment)
			if err != nil {
				return nil, err
			}
			art := &ProjArtifact{}
			proj := simpoint.NewStreamProjector(numBlocks, req.Dims, req.Seed)
			cfg.Workers = p.Workers
			obs.SpanFromContext(cctx).SetTag("workers", fmt.Sprint(p.Workers))
			cfg.Sink = func(chunk []trace.Interval) error {
				art.observe(chunk)
				proj.ObserveChunk(chunk)
				return nil
			}
			res, err := trace.Run(cfg)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", req.Segment.Workload, err)
			}
			art.finish(res)
			art.Pts, art.Weights = proj.Matrix()
			return art, nil
		})
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

// Segment computes the response bytes for a canonical segment request,
// straight from the streamed artifact's summaries.
func (p *Pipeline) Segment(ctx context.Context, req SegmentRequest) ([]byte, error) {
	art, err := p.Trace(ctx, req)
	if err != nil {
		return nil, err
	}
	resp := &SegmentResponse{
		Schema:       SchemaSegment,
		Request:      req,
		Instructions: art.Instructions,
		MarkerFires:  art.MarkerFires,
		TrueCPI:      art.TrueCPI,
		Intervals:    art.Intervals,
	}
	if resp.Intervals == nil {
		resp.Intervals = []IntervalInfo{}
	}
	return Encode(resp), nil
}

// Cluster computes the response bytes for a canonical cluster request by
// clustering the streamed projection artifact — the same engine
// simpoint.Classify runs, fed a bit-identical matrix, so the bytes match
// the materializing reference path. Clustering itself is not memoized
// (it is cheap next to the artifact it consumes), so its span is always
// cache=computed.
func (p *Pipeline) Cluster(ctx context.Context, req ClusterRequest) ([]byte, error) {
	art, err := p.project(ctx, req)
	if err != nil {
		return nil, err
	}
	sp := obs.SpanFromContext(ctx).Child(SpanCluster, req.Segment.Workload)
	sp.SetTag("cache", store.Computed.String())
	c := simpoint.Cluster(art.Pts, art.Weights, ClusterOptions(req))
	sp.End()
	return Encode(newClusterResponseFromArtifact(req, art, c)), nil
}
