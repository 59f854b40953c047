package experiments

import (
	"context"
	"fmt"

	"phasemark/internal/artifact"
	"phasemark/internal/core"
	"phasemark/internal/par"
	"phasemark/internal/simpoint"
	"phasemark/internal/store"
	"phasemark/internal/trace"
	"phasemark/internal/workloads"
)

// Suite shares the expensive artifacts (profiles, marker sets, traced
// executions, clusterings) across figures so `spexp -fig all` and the
// benchmark suite don't recompute them per figure.
//
// Programs, graphs, marker sets and traces come from one
// artifact.Pipeline; the suite memoizes only its clusterings. The
// multi-workload figure harnesses fan workloads out over
// ForEachWorkload and assemble their table rows in deterministic
// workload order, so the rendered tables are byte-identical at any
// parallelism level.
type Suite struct {
	// jobs bounds the workloads the figure harnesses evaluate at once.
	jobs int
	// pl runs each profile and trace at its share of the machine among
	// the jobs workloads evaluated at once (par.Share), so the pool's
	// default width traces and profiles serially and -j 1 runs the
	// pipeline-parallel engine and the record/replay split.
	pl       *artifact.Pipeline
	clusters store.Memo[clusterKey, *simpoint.Clustering]

	// placementModes filters the Placement table's minimized-mode columns
	// (nil = all; see SetPlacementModes).
	placementModes map[string]bool
}

// clusterKey names a clustering: the segment it classifies and the
// options (seed included) it classifies with.
type clusterKey struct {
	seg  artifact.Segment
	opts simpoint.Options
}

// spanClassify is the span of a clustering access, tagged like the
// artifact layer's spans with its cache outcome.
const spanClassify = "pipeline.classify"

// NewSuite builds an empty suite that evaluates up to jobs workloads at
// once (values below 1 mean 1).
func NewSuite(jobs int) *Suite {
	if jobs < 1 {
		jobs = 1
	}
	return &Suite{jobs: jobs, pl: artifact.New(par.Share(jobs))}
}

// markerConfigs are the five marker-selection approaches of Figures 7–9.
var markerConfigs = []struct {
	Name string
	Ref  bool // profile input: ref (self-train) or train (cross-train)
	Opts core.SelectOptions
}{
	{"procs no-limit cross", false, core.SelectOptions{ILower: ILower, ProcsOnly: true}},
	{"procs no-limit self", true, core.SelectOptions{ILower: ILower, ProcsOnly: true}},
	{"no-limit cross", false, core.SelectOptions{ILower: ILower}},
	{"no-limit self", true, core.SelectOptions{ILower: ILower}},
	{"limit 100k-2m", true, core.SelectOptions{ILower: LimitMin, MaxLimit: LimitMax}},

	// Minimized placements (core.MinimizeMarkers) of the two configs the
	// placement table and check.Placement compare against their full
	// counterparts above.
	{"min no-limit cross", false, core.SelectOptions{ILower: ILower, Minimize: true}},
	{"min limit 100k-2m", true, core.SelectOptions{ILower: LimitMin, MaxLimit: LimitMax, Minimize: true}},
}

// minimizedModes pairs each minimizable marker config with its minimized
// counterpart and the stretch bound its placement must respect on the
// profiled input (0 = unbounded: the cross config selects on train and
// runs on ref, so profile-derived static bounds do not transfer). Short is
// the CLI name `spexp -placement-modes` selects columns by.
var minimizedModes = []struct {
	Short     string
	Full, Min string
	Ref       bool // which profile graph the placement cost is priced on
	IUpper    uint64
}{
	{"cross", "no-limit cross", "min no-limit cross", false, 0},
	{"limit", "limit 100k-2m", "min limit 100k-2m", true, LimitMax},
}

// selection maps a marker config of w onto the marker set it names.
func selection(w *workloads.Workload, config string) (artifact.Select, error) {
	for _, mc := range markerConfigs {
		if mc.Name == config {
			return artifact.Select{Workload: w.Name, Ref: mc.Ref, Opts: mc.Opts}, nil
		}
	}
	return artifact.Select{}, fmt.Errorf("unknown marker config %q", config)
}

// segment maps a trace mode of w onto the ref run it names:
// "fixed:<n>" cuts every n instructions, a marker-config name cuts at
// that set's firings.
func segment(w *workloads.Workload, mode string) (artifact.Segment, error) {
	var n uint64
	if _, err := fmt.Sscanf(mode, "fixed:%d", &n); err == nil {
		return artifact.Segment{Workload: w.Name, FixedLen: n}, nil
	}
	sel, err := selection(w, mode)
	return artifact.Segment{Workload: w.Name, Select: sel}, err
}

// markers returns w's marker set for the named config.
func (s *Suite) markers(ctx context.Context, w *workloads.Workload, config string) (*core.MarkerSet, error) {
	sel, err := selection(w, config)
	if err != nil {
		return nil, err
	}
	return s.pl.Markers(ctx, sel)
}

// traced returns w's ref run segmented by the named mode. Every mode
// collects BBVs: no mode sets SkipBBV.
func (s *Suite) traced(ctx context.Context, w *workloads.Workload, mode string) (*trace.Result, error) {
	seg, err := segment(w, mode)
	if err != nil {
		return nil, err
	}
	return s.pl.Trace(ctx, seg)
}

// clustered runs SimPoint classification over a traced mode's intervals.
func (s *Suite) clustered(ctx context.Context, w *workloads.Workload, mode string, kmax int, seed uint64) (*simpoint.Clustering, *trace.Result, error) {
	seg, err := segment(w, mode)
	if err != nil {
		return nil, nil, err
	}
	res, err := s.pl.Trace(ctx, seg)
	if err != nil {
		return nil, nil, err
	}
	opts := simpoint.Options{KMax: kmax, Dims: 15, Seed: seed, Restarts: 2, MaxIters: 40}
	c, err := artifact.Do(ctx, &s.clusters, spanClassify, w.Name, clusterKey{seg, opts},
		func(context.Context) (*simpoint.Clustering, error) {
			return simpoint.Classify(res, opts), nil
		})
	if err != nil {
		return nil, nil, err
	}
	return c, res, nil
}
