package experiments

import (
	"fmt"
	"runtime"

	"phasemark/internal/core"
	"phasemark/internal/minivm"
	"phasemark/internal/obs"
	"phasemark/internal/par"
	"phasemark/internal/simpoint"
	"phasemark/internal/trace"
	"phasemark/internal/uarch"
	"phasemark/internal/workloads"
)

// Suite memoizes the expensive shared artifacts (profiles, marker sets,
// traced executions, clusterings) across figures so `spexp -fig all` and
// the benchmark suite don't recompute them per figure.
//
// Every artifact is a singleflight cell (see cell.go): concurrent
// requesters of the same artifact block on its one computation, while
// unrelated artifacts compute in parallel. The multi-workload figure
// harnesses fan workloads out over ForEachWorkload and assemble their
// table rows in deterministic workload order, so the rendered tables are
// byte-identical at any parallelism level.
type Suite struct {
	jobs int
	data cellMap[string, *wdata]

	// placementModes filters the Placement table's minimized-mode columns
	// (nil = all; see SetPlacementModes).
	placementModes map[string]bool
}

// NewSuite builds an empty suite cache with parallelism GOMAXPROCS.
func NewSuite() *Suite {
	return &Suite{jobs: runtime.GOMAXPROCS(0)}
}

// SetParallelism bounds the number of workloads evaluated concurrently by
// the figure harnesses (values below 1 mean 1). Call it before running
// figures; it is not synchronized against in-flight fan-outs.
func (s *Suite) SetParallelism(n int) {
	if n < 1 {
		n = 1
	}
	s.jobs = n
}

// Parallelism reports the current workload-level parallelism bound.
func (s *Suite) Parallelism() int {
	if s.jobs < 1 {
		return 1
	}
	return s.jobs
}

// wdata is the lazily computed per-workload state. The compiled program is
// immutable and shared; each artifact class below is a keyed set of
// singleflight cells.
type wdata struct {
	w    *workloads.Workload
	prog *minivm.Program
	// traceWorkers is the trace.Config.Workers of the workload's traces:
	// its share of the machine among the Parallelism() workloads
	// evaluated at once (par.Share), so the pool's default width traces
	// serially and -j 1 runs the pipeline-parallel engine.
	traceWorkers int

	graphs   cellMap[bool, *core.Graph] // keyed by isRef
	sets     cellMap[string, *core.MarkerSet]
	traces   cellMap[string, *trace.Result]
	clusters cellMap[string, *simpoint.Clustering]
}

// The suite-level spans below time the actual artifact computations (cell
// misses) with the workload name as the span argument; cache hits and
// joins cost no span. Finer-grained spans inside core / trace / simpoint
// ("core.select.pass1", "trace.exec", ...) time the algorithm internals.
func (s *Suite) wd(w *workloads.Workload) (*wdata, error) {
	return s.data.get(w.Name, func() (*wdata, error) {
		sp := obs.StartSpan("workload.compile", w.Name)
		defer sp.End()
		prog, err := w.Compile(false)
		if err != nil {
			return nil, err
		}
		return &wdata{w: w, prog: prog, traceWorkers: par.Share(s.Parallelism())}, nil
	})
}

func (d *wdata) graph(ref bool) (*core.Graph, error) {
	return d.graphs.get(ref, func() (*core.Graph, error) {
		sp := obs.StartSpan("graph.build", d.w.Name)
		defer sp.End()
		args := d.w.Train
		if ref {
			args = d.w.Ref
		}
		g, err := core.ProfileRun(d.prog, args...)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", d.w.Name, err)
		}
		return g, nil
	})
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

func (d *wdata) markerSet(name string) (*core.MarkerSet, error) {
	for _, mc := range markerConfigs {
		if mc.Name != name {
			continue
		}
		mc := mc
		return d.sets.get(name, func() (*core.MarkerSet, error) {
			g, err := d.graph(mc.Ref)
			if err != nil {
				return nil, err
			}
			sp := obs.StartSpan("select.markers", d.w.Name+"/"+name)
			defer sp.End()
			return core.SelectMarkers(g, mc.Opts), nil
		})
	}
	return nil, fmt.Errorf("unknown marker config %q", name)
}

// traced runs the ref input segmented by the named mode:
// "fixed:<n>" cuts every n instructions (BBVs collected);
// a marker-config name cuts at that set's firings (BBVs collected only for
// the limit config, which feeds VLI SimPoint).
func (d *wdata) traced(mode string) (*trace.Result, error) {
	return d.traces.get(mode, func() (*trace.Result, error) {
		cfg := trace.Config{
			Prog:    d.prog,
			Args:    d.w.Ref,
			CPU:     uarch.DefaultConfig(),
			Workers: d.traceWorkers,
		}
		var n uint64
		if _, err := fmt.Sscanf(mode, "fixed:%d", &n); err == nil {
			cfg.FixedLen = n
		} else {
			set, err := d.markerSet(mode)
			if err != nil {
				return nil, err
			}
			cfg.Markers = set
		}
		// The span starts after the marker-set dependency resolves, so
		// "trace.run" times only the traced execution itself.
		sp := obs.StartSpan("trace.run", d.w.Name+"/"+mode)
		defer sp.End()
		r, err := trace.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", d.w.Name, mode, err)
		}
		return r, nil
	})
}

// clustered runs SimPoint classification over a traced mode's intervals.
func (d *wdata) clustered(mode string, kmax int, seed uint64) (*simpoint.Clustering, *trace.Result, error) {
	res, err := d.traced(mode)
	if err != nil {
		return nil, nil, err
	}
	key := fmt.Sprintf("%s/k%d", mode, kmax)
	c, err := d.clusters.get(key, func() (*simpoint.Clustering, error) {
		sp := obs.StartSpan("simpoint.classify", d.w.Name+"/"+key)
		defer sp.End()
		return simpoint.Classify(res, simpoint.Options{KMax: kmax, Dims: 15, Seed: seed, Restarts: 2, MaxIters: 40}), nil
	})
	if err != nil {
		return nil, nil, err
	}
	return c, res, nil
}
