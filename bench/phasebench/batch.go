package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"runtime"
	"time"

	"phasemark"
	"phasemark/internal/simpoint"
	"phasemark/internal/trace"
	"phasemark/internal/uarch"
	"phasemark/internal/workloads"
)

// Batch layer span names: one per public entry point the ops call.
const (
	layerProfile  = "core.profile"
	layerSelect   = "core.select"
	layerTrace    = "trace"
	layerClassify = "simpoint.classify"
	layerEvaluate = "simpoint.evaluate"
)

var batchLayerNames = []string{layerProfile, layerSelect, layerTrace, layerClassify, layerEvaluate}

// spanProbe is the bench's own calibration and set-up sampling between
// ops (calib.go).
const spanProbe = "probe"

// Marker selection settings of the paper configuration the workloads use:
// the §5.4 no-limit run and the §5.2 SimPoint variant, full and minimized.
var (
	selNoLimit  = phasemark.SelectOptions{ILower: 100_000}
	selLimit    = phasemark.SelectOptions{ILower: 100_000, MaxLimit: 2_000_000}
	selLimitMin = phasemark.SelectOptions{ILower: 100_000, MaxLimit: 2_000_000, Minimize: true}
)

// fixedLen is the SP_10k interval length (the paper's 1M, scaled 1:100).
const fixedLen = 10_000

// batchWorkload is one batch workload: the programs it runs, the op each
// pass applies to every program, and how long a pass takes on the
// reference host, which sets the run's pass count.
type batchWorkload struct {
	suite func() []*workloads.Workload
	op    func(b *batchRun, op int, p *program) (*outputs, error)
	pass  time.Duration
}

var batchWorkloads = map[string]batchWorkload{
	"select_suite":      {workloads.All, (*batchRun).selectSuite, 1900 * time.Millisecond},
	"simpoint_vli":      {workloads.Suite79, (*batchRun).simpointVLI, 3900 * time.Millisecond},
	"simpoint_fixed10k": {workloads.Suite79, (*batchRun).simpointFixed, 3700 * time.Millisecond},
}

// mix64 is the SplitMix64 finalizer. The bench keeps its own generator so
// that no change outside bench/ can change the inputs it generates.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

const golden = 0x9e3779b97f4a7c15

// programSeed is the PRNG seed a program receives on one of its inputs:
// splitmix(seed, program index, train|ref), kept in [1, 2^31) like the
// seeds the suite was written with.
func programSeed(seed uint64, index int, ref bool) int64 {
	k := uint64(2 * index)
	if ref {
		k++
	}
	return int64(mix64(mix64(seed+golden)+k+golden)%(1<<31-1)) + 1
}

// program is one compiled suite program with its seeded inputs.
type program struct {
	name       string
	prog       *phasemark.Program
	train, ref []int64
}

// loadPrograms compiles the suite from source (never from the workloads
// package's compile cache, so every call does the work) and replaces the
// seed argument, the last one of every program, in both inputs.
func loadPrograms(suite []*workloads.Workload, seed uint64) ([]*program, error) {
	index := map[string]int{}
	for i, w := range workloads.All() {
		index[w.Name] = i
	}
	out := make([]*program, len(suite))
	for i, w := range suite {
		prog, err := phasemark.CompileSource(w.Source, false)
		if err != nil {
			return nil, fmt.Errorf("compile %s: %w", w.Name, err)
		}
		seeded := func(args []int64, ref bool) []int64 {
			a := append([]int64(nil), args...)
			a[len(a)-1] = programSeed(seed, index[w.Name], ref)
			return a
		}
		out[i] = &program{name: w.Name, prog: prog, train: seeded(w.Train, false), ref: seeded(w.Ref, true)}
	}
	return out, nil
}

// outputs is everything one op produced; fields an op does not reach stay
// nil or zero.
type outputs struct {
	graph      *phasemark.Graph
	sets       []*phasemark.MarkerSet // every selection, in call order
	limit, min *phasemark.MarkerSet   // the limit-mode selection and its minimized form
	res        *phasemark.Result
	cl         *simpoint.Clustering
	est        simpoint.Estimate
	cov        trace.PhaseCoVResult
}

// batchRun carries what the ops share within one run.
type batchRun struct {
	rec  *recorder
	seed uint64
}

func (b *batchRun) profile(op int, p *program, o *outputs) (err error) {
	b.rec.layer(layerProfile, op, func() { o.graph, err = phasemark.Profile(p.prog, p.train...) })
	return err
}

func (b *batchRun) selectMarkers(op int, o *outputs, opts phasemark.SelectOptions) *phasemark.MarkerSet {
	var set *phasemark.MarkerSet
	b.rec.layer(layerSelect, op, func() { set = phasemark.Select(o.graph, opts) })
	o.sets = append(o.sets, set)
	return set
}

// selectSuite is the marker product alone: profile the train input and
// select three ways.
func (b *batchRun) selectSuite(op int, p *program) (*outputs, error) {
	o := &outputs{}
	if err := b.profile(op, p, o); err != nil {
		return nil, err
	}
	b.selectMarkers(op, o, selNoLimit)
	o.limit = b.selectMarkers(op, o, selLimit)
	o.min = b.selectMarkers(op, o, selLimitMin)
	return o, nil
}

// simpointVLI is the paper's VLI_100% configuration: markers selected on
// train cut the ref run, and SimPoint clusters the variable-length
// intervals.
func (b *batchRun) simpointVLI(op int, p *program) (*outputs, error) {
	o := &outputs{}
	if err := b.profile(op, p, o); err != nil {
		return nil, err
	}
	o.limit = b.selectMarkers(op, o, selLimit)
	var err error
	b.rec.layer(layerTrace, op, func() { o.res, err = phasemark.Segment(p.prog, o.limit, p.ref...) })
	if err != nil {
		return nil, err
	}
	b.classify(op, o, phasemark.IntervalPhase)
	return o, nil
}

// simpointFixed is the SP_10k baseline: fixed cuts, phases from clusters.
func (b *batchRun) simpointFixed(op int, p *program) (*outputs, error) {
	o := &outputs{}
	var err error
	b.rec.layer(layerTrace, op, func() { o.res, err = phasemark.SegmentFixed(p.prog, fixedLen, p.ref...) })
	if err != nil {
		return nil, err
	}
	b.classify(op, o, func(iv *phasemark.Interval) int { return o.cl.Assign[iv.Index] })
	return o, nil
}

// classify runs SimPoint over o.res with the Figure 11/12 settings, picks
// and evaluates the points, and measures phase homogeneity under phaseOf.
func (b *batchRun) classify(op int, o *outputs, phaseOf func(*phasemark.Interval) int) {
	opts := simpoint.Options{KMax: 30, Dims: 15, Seed: b.seed, Restarts: 2, MaxIters: 40}
	b.rec.layer(layerClassify, op, func() { o.cl = simpoint.Classify(o.res, opts) })
	b.rec.layer(layerEvaluate, op, func() {
		pts := simpoint.PickPoints(o.cl, o.cl.Points())
		o.est = simpoint.Evaluate(pts, o.res.Intervals, o.res.TrueCPI(), o.cl.K)
		o.cov = phasemark.PhaseCoV(o.res.Intervals, phaseOf, phasemark.CPIMetric)
	})
}

// opSummary is what the bench keeps of one op after verification: the
// output digest and the counts the metrics need.
type opSummary struct {
	digest           string
	profiled, traced uint64 // guest instructions
	edges            int
	markers, kept    int // limit-mode markers, and how many minimization kept
	intervals        int
	fires            uint64
	total            uarch.Counters
	k, points        int
	relErr, phaseCoV float64
	simIns           uint64
}

// digester hashes outputs field by field in a fixed order.
type digester struct{ h hash.Hash }

func (d digester) u(vs ...uint64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], v)
		d.h.Write(b[:])
	}
}

func (d digester) f(vs ...float64) {
	for _, v := range vs {
		d.u(math.Float64bits(v))
	}
}

// summarize digests the op's outputs (marker keys, interval bounds,
// phases, CPI bits, K, assignments, points and the estimate) and keeps
// its counts.
func summarize(o *outputs) *opSummary {
	s := &opSummary{}
	d := digester{sha256.New()}
	if o.graph != nil {
		s.edges = len(o.graph.Edges)
		for _, e := range o.graph.Root.Out {
			s.profiled += uint64(e.Hier.Sum())
		}
		d.u(uint64(len(o.graph.Nodes)), uint64(s.edges), s.profiled)
	}
	for _, set := range o.sets {
		d.u(uint64(len(set.Markers)))
		for _, m := range set.Markers {
			d.h.Write([]byte(m.Key.String()))
			d.u(m.GroupN)
		}
	}
	if o.limit != nil {
		s.markers = len(o.limit.Markers)
	}
	if o.min != nil {
		s.kept = len(o.min.Markers)
	}
	if r := o.res; r != nil {
		s.traced, s.fires, s.total, s.intervals = r.Instructions, r.MarkerFires, r.Total, len(r.Intervals)
		d.u(r.Instructions, r.MarkerFires, uint64(len(r.Intervals)))
		for _, iv := range r.Intervals {
			d.u(iv.Start, iv.End, uint64(int64(iv.PhaseID)))
			d.f(iv.CPI())
		}
	}
	if c := o.cl; c != nil {
		s.k, s.points = c.K, len(o.est.Points)
		s.relErr, s.phaseCoV, s.simIns = o.est.RelativeError, o.cov.CoV, o.est.SimulatedIns
		d.u(uint64(c.K))
		for _, a := range c.Assign {
			d.u(uint64(int64(a)))
		}
		for _, p := range o.est.Points {
			d.u(uint64(p.Cluster), uint64(p.Interval))
			d.f(p.Weight)
		}
		d.f(o.est.EstimatedCPI, o.cov.CoV)
		d.u(o.est.SimulatedIns)
	}
	s.digest = hex.EncodeToString(d.h.Sum(nil))
	return s
}

// runBatch sets the workload up, then runs a fixed number of whole passes
// over its programs, about --seconds of them on the reference host; an op
// is one program in one pass. Each op's digest must equal its first
// pass's and, where want has the program, want's. refWork is each
// program's guest instructions per op at the reference seed.
func runBatch(cfg config, rec *recorder, want map[string]string, refWork map[string]uint64, w batchWorkload, nk *netKernel) (*result, error) {
	suite := w.suite()
	passes := max(1, int(math.Round(float64(time.Duration(cfg.seconds)*time.Second)/float64(w.pass))))
	if smoke != nil {
		suite = suite[:min(smoke.programs, len(suite))]
		passes = smoke.passes
	}
	res := &result{net: nk, digests: map[string]string{}, work: map[string]uint64{}}
	var progs []*program
	setup := func(keep bool) func() (time.Duration, error) {
		return func() (time.Duration, error) {
			t0 := time.Now()
			ps, err := loadPrograms(suite, cfg.seed)
			d := time.Since(t0)
			if keep {
				progs = ps
			}
			return d, err
		}
	}
	if err := res.probe(setup(true)); err != nil {
		return nil, err
	}

	b := &batchRun{rec: rec, seed: cfg.seed}
	last := make([]*opSummary, len(progs))
	var times []time.Duration // every op's time, at its program's reference work
	var unscaled time.Duration
	var profiled, traced uint64
	var gort goRuntime
	deadline := time.Now().Add(capFactor * time.Duration(cfg.seconds) * time.Second)
	for ; res.passes < passes; res.passes++ {
		if res.passes > 0 && time.Now().After(deadline) {
			res.capped = true
			break
		}
		pass := res.passes
		ps := rec.begin("pass", -1)
		for i, p := range progs {
			pr := rec.begin(spanProbe, ps)
			err := res.probe(setup(false))
			rec.end(pr)
			if err != nil {
				return nil, err
			}
			gort.start()
			id := rec.begin("op", ps)
			t0 := time.Now()
			out, err := w.op(b, id, p)
			d := time.Since(t0)
			rec.end(id)
			gort.stop()
			res.attempted++
			unscaled += d
			if err != nil {
				times = append(times, d)
				res.fail(cfg, "%s pass %d: %v", p.name, pass, err)
				continue
			}
			s := summarize(out)
			res.work[p.name] = s.profiled + s.traced
			if ref := refWork[p.name]; ref > 0 {
				d = time.Duration(float64(d) * float64(ref) / float64(s.profiled+s.traced))
			}
			times = append(times, d)
			profiled += s.profiled
			traced += s.traced
			ref, ok := res.digests[p.name]
			if !ok {
				ref, ok = want[p.name]
			}
			if ok && s.digest != ref {
				res.fail(cfg, "%s pass %d: output digest %.12s, want %.12s", p.name, pass, s.digest, ref)
				continue
			}
			res.digests[p.name] = s.digest
			last[i] = s
		}
		rec.end(ps)
	}

	// The latency percentiles are taken over every op of the run, not over
	// one figure per program: one program's time moves by up to 10% between
	// runs even after calibration, and the 90th percentile of 11 programs
	// is one program. The seed changes how much work some programs do (gcc,
	// vpr and bzip2 by up to 25%), so each op's time above is rescaled to
	// its program's work at the reference seed.
	var total time.Duration
	for _, d := range times {
		total += d
	}
	res.raw = perf{float64(len(times)) / total.Seconds(), quantile(times, 0.5), quantile(times, 0.9)}
	s := res.scale()
	res.cal = perf{res.raw.opsPerS / s, time.Duration(float64(res.raw.p50) * s), time.Duration(float64(res.raw.p90) * s)}
	res.extra = append(res.extra, metric{name: "work.scale", value: float64(total) / float64(unscaled), unit: "x"})
	res.instrs = (profiled + traced) / uint64(res.passes)
	if rec != nil {
		res.layers = batchLayers(rec, last, profiled, traced)
		gort.layers(res.layers, res.attempted)
	}
	return res, nil
}

// batchLayers derives the per-layer metrics of a traced batch run from its
// spans and its last pass's summaries.
func batchLayers(rec *recorder, last []*opSummary, profiled, traced uint64) map[string]float64 {
	tot := rec.totals()
	wall := tot["pass"].Seconds()
	share := func(layer string) float64 { return 100 * tot[layer].Seconds() / wall }
	rate := func(instrs uint64, layer string) float64 {
		if tot[layer] == 0 {
			return 0
		}
		return float64(instrs) / 1e6 / tot[layer].Seconds()
	}
	m := map[string]float64{
		"core.profile.busy_pct":      share(layerProfile),
		"core.profile.minstr_per_s":  rate(profiled, layerProfile),
		"core.select.busy_pct":       share(layerSelect),
		"trace.busy_pct":             share(layerTrace),
		"trace.minstr_per_s":         rate(traced, layerTrace),
		"simpoint.classify.busy_pct": share(layerClassify),
		"simpoint.evaluate.busy_pct": share(layerEvaluate),
	}
	accounted := tot[spanProbe].Seconds()
	for _, l := range batchLayerNames {
		accounted += tot[l].Seconds()
	}
	m["bench.unaccounted_pct"] = 100 * (wall - accounted) / wall

	var c uarch.Counters
	var markers, kept, clustered int
	var relErr, phaseCoV float64
	var simIns uint64
	for _, s := range last {
		if s == nil {
			continue
		}
		m["core.graph.edges"] += float64(s.edges)
		m["trace.intervals"] += float64(s.intervals)
		m["trace.marker_fires"] += float64(s.fires)
		m["simpoint.k"] += float64(s.k)
		m["simpoint.points"] += float64(s.points)
		markers += s.markers
		kept += s.kept
		c = c.Add(s.total)
		simIns += s.simIns
		if s.k > 0 {
			clustered++
			relErr += s.relErr
			phaseCoV += s.phaseCoV
		}
	}
	m["core.select.markers"] = float64(markers)
	if kept > 0 {
		m["core.select.kept_pct"] = 100 * float64(kept) / float64(markers)
	}
	if c.Instrs > 0 && c.Branches > 0 {
		m["uarch.cpi"] = c.CPI()
		m["uarch.dl1_miss_pct"] = 100 * c.L1MissRate()
		m["uarch.mispred_pct"] = 100 * float64(c.Mispred) / float64(c.Branches)
	}
	if clustered > 0 {
		m["simpoint.cpi_err_pct"] = 100 * relErr / float64(clustered)
		m["simpoint.phase_cov_pct"] = 100 * phaseCoV / float64(clustered)
		m["simpoint.sim_pct"] = 100 * float64(simIns) / float64(c.Instrs)
	}
	return m
}

// goRuntime accumulates the Go runtime's allocation and GC work over the
// timed regions of a run, leaving out the probes between them.
type goRuntime struct {
	at                    runtime.MemStats
	alloc, gcs, pauseNano uint64
}

func (g *goRuntime) start() { runtime.ReadMemStats(&g.at) }

func (g *goRuntime) stop() {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	g.alloc += now.TotalAlloc - g.at.TotalAlloc
	g.gcs += uint64(now.NumGC - g.at.NumGC)
	g.pauseNano += now.PauseTotalNs - g.at.PauseTotalNs
}

// layers adds the per-op runtime metrics.
func (g *goRuntime) layers(m map[string]float64, ops int) {
	n := float64(ops)
	m["go.alloc_mb"] = float64(g.alloc) / (1 << 20) / n
	m["go.gc_cycles"] = float64(g.gcs) / n
	m["go.gc_pause_ms"] = float64(g.pauseNano) / 1e6 / n
}
