// Command phasebench is the repository benchmark. It runs one named
// workload over the phase-marker pipeline, or over the phased service, for
// a fixed amount of work; verifies every output; and prints each metric as
// `name value unit`, then all of them as one JSON object on the last line.
// Run it through bench/run.sh from the repository root:
//
//	bash bench/run.sh --workload simpoint_vli --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// records a span around every layer call and reports the per-layer
// metrics. Exit status: 0 ok, 1 an op or a verification failed, 2 usage.
// See bench/README.md for the workloads and the metrics.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// smoke, set only by the tests, shrinks a run: the first programs of the
// suite, a fixed number of passes, or a fixed number of requests.
var smoke *struct{ programs, passes, requests int }

// endToEnd and perLayer are the metrics printed in the last line's JSON
// with --trace 0 and --trace 1; BENCHMARK.json declares the same names and
// units.
var endToEnd = []metric{
	{name: "setup_s", unit: "s"},
	{name: "ops_per_s", unit: "1/s"},
	{name: "latency_p50_ms", unit: "ms"},
	{name: "latency_p90_ms", unit: "ms"},
	{name: "peak_rss_mb", unit: "MB"},
}

// A run does a fixed amount of work, set from --seconds and the workload's
// speed on the reference host, so runs of two commits do the same work.
// A run that is still going after capFactor × --seconds starts no further
// pass or round; it then prints a warning, since it did less work.
const capFactor = 4

var perLayer = []metric{
	{name: "core.profile.busy_pct", unit: "%"},
	{name: "core.profile.minstr_per_s", unit: "Minstr/s"},
	{name: "core.graph.edges", unit: "count"},
	{name: "core.select.busy_pct", unit: "%"},
	{name: "core.select.markers", unit: "count"},
	{name: "core.select.kept_pct", unit: "%"},
	{name: "trace.busy_pct", unit: "%"},
	{name: "trace.minstr_per_s", unit: "Minstr/s"},
	{name: "trace.intervals", unit: "count"},
	{name: "trace.marker_fires", unit: "count"},
	{name: "uarch.cpi", unit: "cycles/instr"},
	{name: "uarch.dl1_miss_pct", unit: "%"},
	{name: "uarch.mispred_pct", unit: "%"},
	{name: "simpoint.classify.busy_pct", unit: "%"},
	{name: "simpoint.evaluate.busy_pct", unit: "%"},
	{name: "simpoint.k", unit: "count"},
	{name: "simpoint.points", unit: "count"},
	{name: "simpoint.cpi_err_pct", unit: "%"},
	{name: "simpoint.sim_pct", unit: "%"},
	{name: "simpoint.phase_cov_pct", unit: "%"},
	{name: "req.queue_pct", unit: "%"},
	{name: "store.get_pct", unit: "%"},
	{name: "store.compute_pct", unit: "%"},
	{name: "store.write_pct", unit: "%"},
	{name: "pipeline.project_pct", unit: "%"},
	{name: "pipeline.cluster_pct", unit: "%"},
	{name: "go.alloc_mb", unit: "MB/op"},
	{name: "go.gc_cycles", unit: "1/op"},
	{name: "go.gc_pause_ms", unit: "ms/op"},
	{name: "bench.unaccounted_pct", unit: "%"},
}

// maxUnaccountedPct bounds, in a traced batch run, the share of pass wall
// time that no layer span covers.
const maxUnaccountedPct = 5

type metric struct {
	name  string
	value float64
	unit  string
}

type config struct {
	workload string
	seed     uint64
	seconds  int
	traced   bool
	traceOut string
	out      string
	log      io.Writer
}

// perf is a run's speed, as measured or at the reference host speed.
type perf struct {
	opsPerS  float64
	p50, p90 time.Duration // op latency
}

// result is what a workload run measured.
type result struct {
	probes    []probeSample // host kernel and set-up samples (calib.go)
	raw, cal  perf          // as measured; calibrated
	passes    int           // batch passes, or service rounds
	capped    bool          // the run stopped early at capFactor × --seconds
	instrs    uint64        // guest instructions interpreted per pass (batch)
	attempted int
	failed    int
	layers    map[string]float64 // per-layer metrics, traced runs only
	extra     []metric           // printed but not part of the JSON line
	digests   map[string]string  // output digest per program (batch)
	work      map[string]uint64  // guest instructions per op, per program (batch)
	net       *netKernel
}

func (r *result) fail(cfg config, format string, args ...any) {
	r.failed++
	fmt.Fprintf(cfg.log, "phasebench: FAIL "+format+"\n", args...)
}

//go:embed testdata/expected_seed1.json
var expectedJSON []byte

// expected holds, per batch workload, the output digest of every program
// at Seed and its guest instructions per op there, the reference size op
// times are scaled to. Service replies are checked against the in-process
// pipeline instead (service.go).
type expected struct {
	Seed    uint64                       `json:"seed"`
	Digests map[string]map[string]string `json:"digests"`
	Work    map[string]map[string]uint64 `json:"work"`
}

func workloadNames() []string {
	var names []string
	for n := range batchWorkloads {
		names = append(names, n)
	}
	for n := range serviceWorkloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// runWorkload runs cfg.workload, checking its outputs against exp as well
// as against each other; exp may be nil.
func runWorkload(cfg config, rec *recorder, exp *expected) (*result, error) {
	nk, err := startNetKernel()
	if err != nil {
		return nil, fmt.Errorf("network kernel: %w", err)
	}
	defer nk.close()
	if w, ok := batchWorkloads[cfg.workload]; ok {
		var want map[string]string
		var work map[string]uint64
		if exp != nil {
			if cfg.seed == exp.Seed {
				want = exp.Digests[cfg.workload]
			}
			work = exp.Work[cfg.workload]
		}
		return runBatch(cfg, rec, want, work, w, nk)
	}
	return runService(cfg, rec, serviceWorkloads[cfg.workload], nk)
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	cfg := config{log: stderr}
	fs := flag.NewFlagSet("phasebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.String("seed", "", "input seed (unsigned integer, required)")
	fs.IntVar(&cfg.seconds, "seconds", 15, "run length in seconds on the reference host; sets the run's fixed amount of work")
	trace := fs.Int("trace", 0, "1 records layer spans and reports per-layer metrics")
	fs.StringVar(&cfg.traceOut, "trace-out", "", "traced run: write the spans as Chrome trace JSON to this file")
	fs.StringVar(&cfg.out, "out", "", "also write the run stamp and every metric as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if fs.NArg() > 0 {
		return cfg, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	_, batch := batchWorkloads[cfg.workload]
	if _, service := serviceWorkloads[cfg.workload]; !batch && !service {
		return cfg, fmt.Errorf("unknown workload %q (known: %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	var err error
	if cfg.seed, err = strconv.ParseUint(*seed, 10, 64); err != nil {
		return cfg, fmt.Errorf("-seed: need an unsigned integer, got %q", *seed)
	}
	if cfg.seconds < 1 {
		return cfg, fmt.Errorf("-seconds must be at least 1")
	}
	if *trace != 0 && *trace != 1 {
		return cfg, fmt.Errorf("-trace must be 0 or 1")
	}
	cfg.traced = *trace == 1
	return cfg, nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintf(stderr, "phasebench: %v\n", err)
		}
		return 2
	}
	var exp expected
	if err := json.Unmarshal(expectedJSON, &exp); err != nil {
		fmt.Fprintf(stderr, "phasebench: expected outputs: %v\n", err)
		return 1
	}
	var rec *recorder
	if cfg.traced {
		rec = newRecorder()
	}
	st := newStamp(cfg)
	fmt.Fprintf(stdout, "# phasebench %s\n", st)

	res, err := runWorkload(cfg, rec, &exp)
	if err != nil {
		fmt.Fprintf(stderr, "phasebench: %v\n", err)
		return 1
	}
	rss, err := peakRSSMB()
	if err != nil {
		fmt.Fprintf(stderr, "phasebench: %v\n", err)
		return 1
	}

	fmt.Fprintf(stdout, "# ops=%d passes=%d guest_instrs_per_pass=%d probes=%d\n",
		res.attempted, res.passes, res.instrs, len(res.probes))
	if res.capped {
		fmt.Fprintf(stderr, "phasebench: warning: stopped after %d× --seconds with less than the run's fixed work\n", capFactor)
	}
	e2e := endToEndValues(res, rss, true)
	printed := append([]metric(nil), e2e...)
	for _, m := range endToEndValues(res, rss, false) {
		printed = append(printed, metric{name: "raw." + m.name, value: m.value, unit: m.unit})
	}
	printed = append(printed, res.hostMetrics()...)
	printed = append(printed, res.extra...)
	printMetrics(stdout, printed)
	reported := e2e
	if rec != nil {
		var selfs []metric
		for name, d := range rec.selfTimes() {
			selfs = append(selfs, metric{name: "self." + name, value: d.Seconds(), unit: "s"})
		}
		sort.Slice(selfs, func(i, j int) bool { return selfs[i].name < selfs[j].name })
		reported = make([]metric, len(perLayer))
		for i, m := range perLayer {
			m.value = res.layers[m.name]
			reported[i] = m
		}
		printMetrics(stdout, selfs)
		printMetrics(stdout, reported)
		printed = append(append(printed, selfs...), reported...)
		if _, batch := batchWorkloads[cfg.workload]; batch && res.layers["bench.unaccounted_pct"] > maxUnaccountedPct {
			res.fail(cfg, "bench.unaccounted_pct %.2f exceeds %d: a layer is not measured", res.layers["bench.unaccounted_pct"], maxUnaccountedPct)
		}
		if cfg.traceOut != "" {
			if err := writeFile(cfg.traceOut, func(w io.Writer) error { return rec.writeChrome(w, st) }); err != nil {
				fmt.Fprintf(stderr, "phasebench: %v\n", err)
				return 1
			}
		}
	}

	correct := res.failed == 0
	if cfg.out != "" {
		err := writeFile(cfg.out, func(w io.Writer) error {
			return json.NewEncoder(w).Encode(map[string]any{
				"stamp": st, "correct": correct, "attempted": res.attempted, "failed": res.failed,
				"metrics": metricsJSON(printed), "digests": res.digests, "samples": res.samples(),
			})
		})
		if err != nil {
			fmt.Fprintf(stderr, "phasebench: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": res.attempted, "failed": res.failed, "metrics": metricsJSON(reported),
	})
	if err != nil {
		fmt.Fprintf(stderr, "phasebench: result line: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !correct {
		return 1
	}
	return 0
}

// endToEndValues returns the run's end-to-end metrics, at the reference
// host speed or as measured.
func endToEndValues(r *result, rssMB float64, calibrate bool) []metric {
	p := r.raw
	if calibrate {
		p = r.cal
	}
	values := []float64{
		r.setupSeconds(calibrate),
		p.opsPerS,
		ms(p.p50),
		ms(p.p90),
		rssMB,
	}
	out := make([]metric, len(endToEnd))
	for i, m := range endToEnd {
		m.value = values[i]
		out[i] = m
	}
	return out
}

func printMetrics(w io.Writer, list []metric) {
	for _, m := range list {
		fmt.Fprintf(w, "%s %s %s\n", m.name, strconv.FormatFloat(m.value, 'g', -1, 64), m.unit)
	}
}

func metricsJSON(list []metric) map[string]any {
	out := make(map[string]any, len(list))
	for _, m := range list {
		out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	return out
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// quantile is the nearest-rank p-quantile (0 < p <= 1); zero when empty.
func quantile(ds []time.Duration, p float64) time.Duration {
	fs := make([]float64, len(ds))
	for i, d := range ds {
		fs[i] = float64(d)
	}
	return time.Duration(quantileF(fs, p))
}

func quantileF(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(p*float64(len(s))+0.5) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// stamp identifies the machine, build and inputs behind a run.
type stamp struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Traced     bool   `json:"traced"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Revision   string `json:"revision"`
	Dirty      bool   `json:"dirty"`
	Date       string `json:"date"`
}

func newStamp(cfg config) stamp {
	st := stamp{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Traced: cfg.traced,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPU: "unknown",
		Go: runtime.Version(), Revision: "unknown", Date: time.Now().UTC().Format(time.RFC3339),
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		if v, ok := procField(string(b), "model name"); ok {
			st.CPU = v
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				st.Revision = s.Value
			case "vcs.modified":
				st.Dirty = s.Value == "true"
			}
		}
	}
	return st
}

func (s stamp) String() string {
	b, _ := json.Marshal(s)
	return string(b)
}

// procField returns the value of the first `key: value` line of a /proc
// file.
func procField(text, key string) (string, bool) {
	for _, line := range strings.Split(text, "\n") {
		k, v, ok := strings.Cut(line, ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v), true
		}
	}
	return "", false
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	v, ok := procField(string(b), "VmHWM")
	kb, err := strconv.ParseFloat(strings.TrimSuffix(v, " kB"), 64)
	if !ok || err != nil {
		return 0, fmt.Errorf("peak RSS: cannot parse VmHWM %q", v)
	}
	return kb / 1024, nil
}
