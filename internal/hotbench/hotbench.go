// Package hotbench defines the execute/observe hot-path benchmark stages
// shared by the root benchmark suite (hotpath_bench_test.go, which the CI
// perf-regression gate runs on head and merge base) and `spexp -bench`
// (which snapshots the same stages into BENCH_hotpath.json, the repo's
// committed performance record).
//
// Each stage pins its workload, input, and configuration so runs are
// comparable across commits: the workload programs are deterministic and
// the synthetic address stream is seeded, so only the code under test
// changes between measurements.
package hotbench

import (
	"fmt"
	"strings"

	"phasemark/internal/check"
	"phasemark/internal/core"
	"phasemark/internal/minivm"
	"phasemark/internal/simpoint"
	"phasemark/internal/trace"
	"phasemark/internal/uarch"
	"phasemark/internal/workloads"
)

// Stage is one benchmarkable slice of the pipeline. New builds the
// stage's fixed inputs (compiled program, marker set, ...) once; the
// returned run function executes one operation and reports the work units
// it processed (dynamic instructions, or memory events for cpu_onmem).
type Stage struct {
	Name string // stable key in the phasemark/bench-hotpath/v3 schema
	Desc string
	Unit string // throughput metric name: "Minstr/s" or "Mevents/s"
	New  func() (func() (uint64, error), error)
}

// markerILower is the interval lower bound used by the marker-selection
// stages; it matches the experiment suite's small-interval configurations.
const markerILower = 100_000

// fixedLen is the fixed-interval length of the trace_fixed stage.
const fixedLen = 100_000

// onMemEvents is the synthetic memory-event count per cpu_onmem op.
const onMemEvents = 1 << 20

// Analysis-stage fixture: gzip's train input traced at fine-grained fixed
// intervals, so the project and cluster stages see a realistic interval
// population (hundreds of BBVs) at the paper's KMax=30 operating point.
const (
	analysisFixedLen = 10_000
	analysisKMax     = 30
	analysisDims     = 15
	analysisSeed     = 0xC1
)

// streamK is the centroid count of the streaming mini-batch clusterer in
// the long streaming stages.
const streamK = 8

// longChunks is gzip's chunk count (its first argument) in the long
// streaming stages, whose other arguments are train's. Train runs 4
// chunks, 6,224,984 instructions; 653 run 622,795,752, over 100 times as
// many, so the streaming stages trace one execution long enough that a
// trace held in memory would show in the process's peak RSS.
const longChunks = 653

// Stages returns the hot-path stages in reporting order.
//
// Every tracing stage but pipeline_e2e_stream_long_par pins the serial
// path (trace.Config.Workers 1), so its history stays comparable across
// commits and machines; pipeline_e2e_stream_long_par runs trace's
// default, GOMAXPROCS workers: the record/replay split on a multi-core
// host.
func Stages() []Stage {
	return []Stage{
		{
			Name: "interp_dispatch",
			Desc: "steady-state interpreter dispatch: applu (optimized) on its train input, machine reused via Reset, no observers",
			Unit: "Minstr/s",
			New:  newInterpDispatch,
		},
		{
			Name: "interp_suite",
			Desc: "interpreter on the mix the pipeline runs: all 16 workloads on their train inputs at -O0, machines reused via Reset, no observers",
			Unit: "Minstr/s",
			New:  newInterpSuite,
		},
		{
			Name: "profile",
			Desc: "call-loop profiling: core.ProfileRun on gzip's train input, the walker numbering edges and the graph accumulating per-edge statistics over a full run; on the record/replay split at GOMAXPROCS >= 2, the serial machine at 1, so only runs of equal gomaxprocs compare",
			Unit: "Minstr/s",
			New:  newProfile,
		},
		{
			Name: "detector_fire",
			Desc: "marker detection: art on its train input under a core.Detector (static anchor tables) for its own limit-mode markers (100k-2M with loop-iteration grouping — the config with real probe traffic, ~4% of instructions; the no-limit selection's markers sit on edges traversed a few dozen times, leaving nothing to detect)",
			Unit: "Minstr/s",
			New:  newDetectorFire,
		},
		{
			Name: "detector_fire_min",
			Desc: "marker detection after minimum-cost placement: detector_fire's fixture with the core.MinimizeMarkers placement (setup verifies the kept markers fire as the exact restriction of the full set)",
			Unit: "Minstr/s",
			New:  newDetectorFireMin,
		},
		{
			Name: "trace_fixed",
			Desc: "fixed-cut tracing: gzip on its train input, 100k-instruction intervals, timing model + BBVs",
			Unit: "Minstr/s",
			New:  newTraceFixed,
		},
		{
			Name: "trace_marker",
			Desc: "marker-cut tracing: art on its train input, intervals cut at marker firings, timing model + BBVs",
			Unit: "Minstr/s",
			New:  newTraceMarker,
		},
		{
			Name: "cpu_onmem",
			Desc: "cache hierarchy: 1Mi synthetic word accesses (seeded xorshift over 1 MiB mixed with a hot stride)",
			Unit: "Mevents/s",
			New:  newCPUOnMem,
		},
		{
			Name: "pipeline_e2e",
			Desc: "profile -> select -> marker-cut trace, end to end on gzip's train input",
			Unit: "Minstr/s",
			New:  newPipelineE2E,
		},
		{
			Name: "pipeline_e2e_stream_long",
			Desc: "streaming bounded-memory pipeline: profile -> select on gzip's train input, then a chunked marker-cut trace of one long gzip run (train's arguments at 653 chunks, ~623 M instructions) feeding online projection, mini-batch k-means, and single-pass CoV",
			Unit: "Minstr/s",
			New:  newPipelineE2EStream("pipeline_e2e_stream_long", 1),
		},
		{
			Name: "pipeline_e2e_stream_long_par",
			Desc: "pipeline_e2e_stream_long on the record/replay split: trace production overlapped with chunk analysis (projection, mini-batch k-means, CoV), GOMAXPROCS workers — bit-identical to the serial stream",
			Unit: "Minstr/s",
			New:  newPipelineE2EStream("pipeline_e2e_stream_long_par", 0),
		},
		{
			Name: "project",
			Desc: "BBV random projection: gzip train at 10k fixed intervals, every interval BBV projected to 15 dims",
			Unit: "Mmacs/s",
			New:  newProject,
		},
		{
			Name: "cluster",
			Desc: "SimPoint clustering: gzip train at 10k fixed intervals, weighted k-means over k=1..30 with BIC model selection",
			Unit: "Mdist/s",
			New:  newCluster,
		},
	}
}

// StagesNamed resolves a list of stage names (in suite order) or reports
// the unknown ones alongside the valid set, mirroring the CLI convention
// for unknown figure names.
func StagesNamed(names []string) ([]Stage, error) {
	all := Stages()
	known := make(map[string]Stage, len(all))
	order := make([]string, 0, len(all))
	for _, st := range all {
		known[st.Name] = st
		order = append(order, st.Name)
	}
	want := make(map[string]bool, len(names))
	var unknown []string
	for _, n := range names {
		if _, ok := known[n]; !ok {
			unknown = append(unknown, fmt.Sprintf("%q", n))
			continue
		}
		want[n] = true
	}
	if len(unknown) > 0 {
		return nil, fmt.Errorf("unknown stage %s (known: %s)",
			strings.Join(unknown, ", "), strings.Join(order, ", "))
	}
	var out []Stage
	for _, st := range all {
		if want[st.Name] {
			out = append(out, st)
		}
	}
	return out, nil
}

// analysisFixture traces the deterministic interval population the
// analysis stages (project, cluster) run over.
func analysisFixture() (*trace.Result, error) {
	prog, w, err := compiled("gzip", false)
	if err != nil {
		return nil, err
	}
	return trace.Run(trace.Config{Prog: prog, Args: w.Train, CPU: uarch.DefaultConfig(), FixedLen: analysisFixedLen})
}

func newProject() (func() (uint64, error), error) {
	res, err := analysisFixture()
	if err != nil {
		return nil, err
	}
	// Work unit: one multiply-accumulate, i.e. one nonzero BBV entry times
	// one output dimension — the fixture's exact projection flop count.
	var macs uint64
	for _, iv := range res.Intervals {
		macs += uint64(len(iv.BBV.Idx)) * analysisDims
	}
	return func() (uint64, error) {
		pts, _ := simpoint.ProjectIntervals(res.Intervals, res.NumBlocks, analysisDims, analysisSeed)
		_ = pts
		return macs, nil
	}, nil
}

func newCluster() (func() (uint64, error), error) {
	res, err := analysisFixture()
	if err != nil {
		return nil, err
	}
	pts, weights := simpoint.ProjectIntervals(res.Intervals, res.NumBlocks, analysisDims, analysisSeed)
	opts := simpoint.Options{KMax: analysisKMax, Dims: analysisDims, Seed: analysisSeed}
	// Work unit: one point-to-center distance evaluation of a single naive
	// Lloyd's assignment pass, summed over every (k, restart) run — an
	// engine-independent measure of the fixture's clustering load.
	n := uint64(len(res.Intervals))
	work := n * 3 * uint64(analysisKMax) * uint64(analysisKMax+1) / 2
	return func() (uint64, error) {
		cl := simpoint.Cluster(pts, weights, opts)
		if cl.K < 1 {
			return 0, fmt.Errorf("cluster stage: degenerate clustering (K=%d)", cl.K)
		}
		return work, nil
	}, nil
}

func compiled(name string, opt bool) (*minivm.Program, *workloads.Workload, error) {
	w, err := workloads.ByName(name)
	if err != nil {
		return nil, nil, err
	}
	return w.MustCompile(opt), w, nil
}

func newInterpDispatch() (func() (uint64, error), error) {
	prog, w, err := compiled("applu", true)
	if err != nil {
		return nil, err
	}
	m := minivm.NewMachine(prog, nil)
	return func() (uint64, error) {
		m.Reset()
		if _, err := m.Run(w.Train...); err != nil {
			return 0, err
		}
		return m.Instructions(), nil
	}, nil
}

func newInterpSuite() (func() (uint64, error), error) {
	type run struct {
		m    *minivm.Machine
		args []int64
	}
	var runs []run
	for _, w := range workloads.All() {
		runs = append(runs, run{minivm.NewMachine(w.MustCompile(false), nil), w.Train})
	}
	pass := func() (uint64, error) {
		var instrs uint64
		for _, r := range runs {
			r.m.Reset()
			if _, err := r.m.Run(r.args...); err != nil {
				return 0, err
			}
			instrs += r.m.Instructions()
		}
		return instrs, nil
	}
	// A pass retires ~175M instructions, so testing.B times only a few:
	// one warm pass in setup sizes every machine's buffers, and the timed
	// passes report steady-state allocations (zero) rather than first-run
	// growth divided by a small b.N.
	if _, err := pass(); err != nil {
		return nil, err
	}
	return pass, nil
}

func newProfile() (func() (uint64, error), error) {
	prog, w, err := compiled("gzip", false)
	if err != nil {
		return nil, err
	}
	// Work unit: the run's dynamic instructions. ProfileRun returns only
	// the graph, so count them once on a bare machine; observers never
	// change what executes.
	m := minivm.NewMachine(prog, nil)
	if _, err := m.Run(w.Train...); err != nil {
		return nil, err
	}
	instrs := m.Instructions()
	return func() (uint64, error) {
		if _, err := core.ProfileRun(prog, w.Train...); err != nil {
			return 0, err
		}
		return instrs, nil
	}, nil
}

func markerSet(prog *minivm.Program, args []int64) (*core.MarkerSet, error) {
	g, err := core.ProfileRun(prog, args...)
	if err != nil {
		return nil, err
	}
	return core.SelectMarkers(g, core.SelectOptions{ILower: markerILower}), nil
}

// detectorSelect is the selection the detector stages run under: the
// limit config, whose loop-iteration-grouped markers sit on edges with
// real traversal traffic. The pair must agree — detector_fire_min is
// exactly this selection after core.MinimizeMarkers.
var detectorSelect = core.SelectOptions{ILower: markerILower, MaxLimit: 2_000_000}

func newDetectorFire() (func() (uint64, error), error) {
	prog, w, err := compiled("art", false)
	if err != nil {
		return nil, err
	}
	g, err := core.ProfileRun(prog, w.Train...)
	if err != nil {
		return nil, err
	}
	set := core.SelectMarkers(g, detectorSelect)
	loops := minivm.FindLoops(prog)
	return func() (uint64, error) {
		det, err := core.NewDetector(prog, loops, set, nil)
		if err != nil {
			return 0, err
		}
		m := minivm.NewMachine(prog, det)
		if _, err := m.Run(w.Train...); err != nil {
			return 0, err
		}
		return m.Instructions(), nil
	}, nil
}

// newDetectorFireMin is detector_fire on the minimized placement: same
// program, input, and marker selection, with core.MinimizeMarkers pruning
// the redundant sites first. Setup fails rather than benchmark a placement
// that changes behavior: check.Placement must hold, so no kept marker
// changed, the minimized run's firing sequence is the full run's
// restricted to the kept markers, instant for instant, and both runs
// retire the same instructions.
func newDetectorFireMin() (func() (uint64, error), error) {
	prog, w, err := compiled("art", false)
	if err != nil {
		return nil, err
	}
	g, err := core.ProfileRun(prog, w.Train...)
	if err != nil {
		return nil, err
	}
	set := core.SelectMarkers(g, detectorSelect)
	min, rep := core.MinimizeMarkers(g, set)
	if rep.Kept >= rep.Full || rep.Kept == 0 {
		return nil, fmt.Errorf("detector_fire_min: degenerate placement: kept %d of %d markers", rep.Kept, rep.Full)
	}
	if err := check.Placement(prog, set, min, 0, w.Train...); err != nil {
		return nil, fmt.Errorf("detector_fire_min: %w", err)
	}
	loops := minivm.FindLoops(prog)
	return func() (uint64, error) {
		det, err := core.NewDetector(prog, loops, min, nil)
		if err != nil {
			return 0, err
		}
		m := minivm.NewMachine(prog, det)
		if _, err := m.Run(w.Train...); err != nil {
			return 0, err
		}
		return m.Instructions(), nil
	}, nil
}

func newTraceFixed() (func() (uint64, error), error) {
	prog, w, err := compiled("gzip", false)
	if err != nil {
		return nil, err
	}
	cfg := trace.Config{Prog: prog, Args: w.Train, CPU: uarch.DefaultConfig(), FixedLen: fixedLen, Workers: 1}
	return func() (uint64, error) {
		r, err := trace.Run(cfg)
		if err != nil {
			return 0, err
		}
		return r.Instructions, nil
	}, nil
}

func newTraceMarker() (func() (uint64, error), error) {
	prog, w, err := compiled("art", false)
	if err != nil {
		return nil, err
	}
	set, err := markerSet(prog, w.Train)
	if err != nil {
		return nil, err
	}
	cfg := trace.Config{Prog: prog, Args: w.Train, CPU: uarch.DefaultConfig(), Markers: set, Workers: 1}
	return func() (uint64, error) {
		r, err := trace.Run(cfg)
		if err != nil {
			return 0, err
		}
		return r.Instructions, nil
	}, nil
}

func newCPUOnMem() (func() (uint64, error), error) {
	prog, _, err := compiled("art", false)
	if err != nil {
		return nil, err
	}
	ucfg := uarch.DefaultConfig()
	return func() (uint64, error) {
		cpu := uarch.NewCPU(ucfg, prog)
		x := uint64(12345)
		for j := 0; j < onMemEvents; j++ {
			// Seeded xorshift over a 1 MiB working set, word-aligned, with a
			// hot stride run mixed in (mimics array sweeps).
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			var addr uint64
			if j&7 != 0 {
				addr = uint64(j&4095) * 8 // hot sweep: mostly L1 hits
			} else {
				addr = (x % (1 << 20)) &^ 7
			}
			cpu.OnMem(addr, j&15 == 0)
		}
		return onMemEvents, nil
	}, nil
}

func newPipelineE2E() (func() (uint64, error), error) {
	prog, w, err := compiled("gzip", false)
	if err != nil {
		return nil, err
	}
	ucfg := uarch.DefaultConfig()
	return func() (uint64, error) {
		set, err := markerSet(prog, w.Train)
		if err != nil {
			return 0, err
		}
		r, err := trace.Run(trace.Config{Prog: prog, Args: w.Train, CPU: ucfg, Markers: set, Workers: 1})
		if err != nil {
			return 0, err
		}
		return r.Instructions, nil
	}, nil
}

// newPipelineE2EStream is pipeline_e2e's bounded-memory twin: the same
// profile → select on gzip's train input, then a marker-cut trace of one
// long gzip run (longChunks), streamed — interval chunks flow through the
// online projector, the mini-batch clusterer, and the single-pass CoV
// accumulator, and are recycled; nothing O(trace) is ever resident.
// workers is the trace's trace.Config.Workers; the sink sees the same
// intervals in the same order at any worker count, so only the wall
// clock moves.
func newPipelineE2EStream(name string, workers int) func() (func() (uint64, error), error) {
	return func() (func() (uint64, error), error) {
		prog, w, err := compiled("gzip", false)
		if err != nil {
			return nil, err
		}
		long := append([]int64{longChunks}, w.Train[1:]...)
		ucfg := uarch.DefaultConfig()
		return func() (uint64, error) {
			set, err := markerSet(prog, w.Train)
			if err != nil {
				return 0, err
			}
			km := simpoint.NewStreamKMeans(prog.NumBlocks, simpoint.Options{
				ForceK: streamK, Dims: analysisDims, Seed: analysisSeed, Restarts: 2, MaxIters: 40,
			})
			cov := trace.NewCoVAccumulator(trace.IntervalPhase, trace.CPIMetric)
			r, err := trace.Run(trace.Config{
				Prog: prog, Args: long, CPU: ucfg, Markers: set, Workers: workers,
				Sink: func(chunk []trace.Interval) error {
					km.ObserveChunk(chunk)
					cov.ObserveChunk(chunk)
					return nil
				},
			})
			if err != nil {
				return 0, err
			}
			cl := km.Finish()
			if cl.K < 1 || cl.Points == 0 {
				return 0, fmt.Errorf("%s: degenerate streaming clustering (K=%d over %d points)", name, cl.K, cl.Points)
			}
			if res := cov.Result(); res.Intervals != cl.Points {
				return 0, fmt.Errorf("%s: CoV saw %d intervals, clusterer %d", name, res.Intervals, cl.Points)
			}
			return r.Instructions, nil
		}, nil
	}
}
