package service

import (
	"context"

	"phasemark/internal/artifact"
	"phasemark/internal/core"
	"phasemark/internal/obs"
	"phasemark/internal/simpoint"
	"phasemark/internal/store"
	"phasemark/internal/trace"
)

// Request-scoped span names of a cluster request's two unmemoized
// steps, which sit beside the artifact layer's memoized stages
// (artifact.SpanProg … SpanTrace) and, like them, carry a "cache" tag:
// always computed. Exported alongside store.Span* so telemetry consumers
// name stages consistently.
const (
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
// traced execution. The service renders its memoized artifact.Trace
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

// selection maps a canonical select request onto its artifact key.
func (r SelectRequest) selection() artifact.Select {
	return artifact.Select{Workload: r.Workload, Ref: r.Input == InputRef, Opts: r.Options.SelectOptions()}
}

// segment maps a canonical segment request onto its artifact key.
func (r SegmentRequest) segment() artifact.Segment {
	seg := artifact.Segment{Workload: r.Workload, FixedLen: r.FixedLen}
	if r.Select != nil {
		seg.Select = r.Select.selection()
	}
	return seg
}

// Pipeline computes responses for canonical requests. Compiled
// programs, profiled graphs, marker sets and traced executions come
// from the artifact layer (internal/artifact), which memoizes each one
// and opens its span under the request's. The traced execution is the
// only interpreter run behind a segment: Segment renders it, and every
// cluster request over it projects and clusters its BBVs afresh, which
// costs a small fraction of the run. Projections and clusterings are
// not memoized — the response bytes themselves live in the artifact
// store.
type Pipeline struct {
	art *artifact.Pipeline
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
	g, err := p.art.Graph(ctx, req.Workload, req.Input == InputRef)
	if err != nil {
		return nil, err
	}
	return Encode(NewProfileResponse(req, g)), nil
}

// Select computes the response bytes for a canonical select request.
func (p *Pipeline) Select(ctx context.Context, req SelectRequest) ([]byte, error) {
	set, err := p.art.Markers(ctx, req.selection())
	if err != nil {
		return nil, err
	}
	return Encode(NewSelectResponse(req, set)), nil
}

// Segment computes the response bytes for a canonical segment request
// from its memoized traced execution.
func (p *Pipeline) Segment(ctx context.Context, req SegmentRequest) ([]byte, error) {
	res, err := p.art.Trace(ctx, req.segment())
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
	res, err := p.art.Trace(ctx, req.Segment.segment())
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
