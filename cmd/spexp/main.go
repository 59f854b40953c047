// Command spexp regenerates the paper's evaluation tables and figures on
// the synthetic workload suite.
//
// Usage:
//
//	spexp -fig all          # everything (minutes at -j 1; see -j)
//	spexp -fig 7            # one figure: 3,4,5,7,8,9,10,11,12
//	spexp -fig crossbinary  # the §6.2.1 cross-binary study
//	spexp -fig speed        # the §5.1 selection-cost table
//	spexp -fig placement    # minimum-cost marker placement, full vs minimized
//	spexp -fig placement -placement-modes limit  # one minimized mode (cross,limit)
//	spexp -fig all -j 8     # profile workloads on 8 workers
//
//	spexp -check            # correctness harness: invariant suite over all workloads
//	spexp -check -j 8       # same, on 8 workers
//
//	spexp -bench                         # hot-path stage benchmarks -> BENCH_hotpath.json
//	spexp -bench -bench-label optimized  # record this measurement under a label
//	spexp -bench -bench-stages project,cluster  # measure only the named stages
//	spexp -bench -bench-stages pipeline_e2e_stream -scale 100  # amplified streaming run
//
//	spexp -fig all -metrics out.json        # + metrics snapshot & BENCH_obs.json
//	spexp -fig 7 -trace-out trace.json      # + Chrome trace (chrome://tracing)
//	spexp -fig all -pprof localhost:6060    # + live net/http/pprof server
//
// -check replaces figure generation with the invariant suite (see
// internal/check): differential backend oracle (-O0 / optimized / stack
// outputs and mapped marker traces must agree), segmentation tiling,
// clustering sanity, and detector/instrumentation equivalence, evaluated
// for every workload on the same artifact cache and worker pool the
// figures use. Any violation exits 1.
//
// Figure 5 covers the paper's Figures 5 and 6 (one comparison), and
// Figures 7/8/9 share their underlying runs, as do 11/12.
//
// Workloads are evaluated in parallel on -j workers (default GOMAXPROCS),
// and each workload's traces get its share of the machine, GOMAXPROCS/j
// goroutines: the serial path at the default -j, the pipeline-parallel
// engine below it. Tables are assembled in deterministic workload order,
// so stdout is byte-identical at any -j. The only exception is the §5.1
// analysis-cost table, whose cells are wall-clock measurements.
// Per-figure timing lines go to stderr so stdout stays diffable — all
// observability output likewise goes to stderr or to the files named by
// flags, never stdout.
//
// Naming a figure that does not exist is an error (exit 2), not a silent
// no-op; the same convention covers -bench-stages stage names and
// -placement-modes mode names.
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"phasemark/internal/experiments"
	"phasemark/internal/obs"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 3,4,5,7,8,9,10,11,12,crossbinary,speed,scales,placement,all")
	placementModes := flag.String("placement-modes", "", "with -fig placement: comma-separated minimized-mode subset to report (cross,limit; default all; unknown names exit 2)")
	checkRun := flag.Bool("check", false, "run the correctness harness instead of figures: differential backend oracle, segmentation/clustering invariants, detector/instrumentation equivalence over every workload (exit 1 on any violation)")
	benchRun := flag.Bool("bench", false, "benchmark the hot-path stages (internal/hotbench) instead of generating figures, recording ns/op, allocs/op and throughput per stage")
	benchOut := flag.String("bench-out", "BENCH_hotpath.json", "with -bench: write/merge the phasemark/bench-hotpath/v3 report here")
	benchLabel := flag.String("bench-label", "local", "with -bench: label for this measurement run (an existing run with the same label is updated stage-wise)")
	benchStages := flag.String("bench-stages", "", "with -bench: comma-separated stage subset to measure (default all; unknown names exit 2)")
	benchScale := flag.Int("scale", 1, "with -bench: trace amplifier for the streaming stages — the workload executes N times as one long trace (memory stays bounded; see pipeline_e2e_stream); must be >= 1")
	jobs := flag.Int("j", runtime.GOMAXPROCS(0), "workloads to evaluate in parallel; each workload's traces get GOMAXPROCS/j goroutines (at least 1)")
	metricsOut := flag.String("metrics", "", "write a metrics snapshot (counters, histograms, per-stage durations) to this JSON file, plus BENCH_obs.json with per-stage totals")
	traceOut := flag.String("trace-out", "", "write a Chrome trace_event JSON file of every pipeline stage span")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) while figures run")
	flag.Parse()

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "spexp: pprof server: %v\n", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "(pprof listening on http://%s/debug/pprof/)\n", *pprofAddr)
	}
	if *traceOut != "" {
		obs.SetTraceCapture(true)
	}

	// A -scale below 1 is a usage error (exit 2, like unknown figure or
	// stage names) — never a silent clamp that would mislabel what a
	// benchmark actually measured.
	if *benchScale < 1 {
		fmt.Fprintf(os.Stderr, "spexp: -scale must be >= 1, got %d\n", *benchScale)
		flag.Usage()
		os.Exit(2)
	}

	if *benchRun {
		if err := runBench(*benchOut, *benchLabel, *benchStages, *benchScale); err != nil {
			fmt.Fprintf(os.Stderr, "spexp: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *checkRun {
		s := experiments.NewSuite()
		s.SetParallelism(*jobs)
		start := time.Now()
		sp := obs.StartSpan("check.suite", "")
		err := s.RunChecks(os.Stdout)
		sp.End()
		fmt.Fprintf(os.Stderr, "(invariant suite ran in %v)\n", time.Since(start).Round(time.Millisecond))
		if werr := writeObservability(*metricsOut, *traceOut); werr != nil {
			fmt.Fprintf(os.Stderr, "spexp: %v\n", werr)
			os.Exit(1)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "spexp: %v\n", err)
			os.Exit(1)
		}
		return
	}

	want, err := parseFigs(*fig)
	if err != nil {
		fmt.Fprintf(os.Stderr, "spexp: %v\n", err)
		os.Exit(2)
	}

	s := experiments.NewSuite()
	s.SetParallelism(*jobs)
	if err := s.SetPlacementModes(*placementModes); err != nil {
		fmt.Fprintf(os.Stderr, "spexp: %v\n", err)
		os.Exit(2)
	}
	ran := 0
	for _, ff := range experiments.Figures {
		if !want["all"] && !want[ff.Name] {
			continue
		}
		start := time.Now()
		sp := obs.StartSpan("figure."+ff.Name, "")
		t, err := ff.Fn(s)
		sp.End()
		if err != nil {
			fmt.Fprintf(os.Stderr, "spexp: figure %s: %v\n", ff.Name, err)
			os.Exit(1)
		}
		t.Render(os.Stdout)
		fmt.Fprintf(os.Stderr, "(figure %s computed in %v)\n", ff.Name, time.Since(start).Round(time.Millisecond))
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "spexp: no figure matches %q\n", *fig)
		os.Exit(2)
	}

	if err := writeObservability(*metricsOut, *traceOut); err != nil {
		fmt.Fprintf(os.Stderr, "spexp: %v\n", err)
		os.Exit(1)
	}
}

// parseFigs validates the comma-separated -fig list against the figure
// registry. Unknown names are an error: a typo must not silently produce
// an empty (or partial) report.
func parseFigs(figs string) (map[string]bool, error) {
	known := map[string]bool{"all": true}
	names := make([]string, 0, len(experiments.Figures)+1)
	for _, ff := range experiments.Figures {
		known[ff.Name] = true
		names = append(names, ff.Name)
	}
	names = append(names, "all")
	sort.Strings(names)

	want := map[string]bool{}
	var unknown []string
	for _, f := range strings.Split(figs, ",") {
		f = strings.TrimSpace(f)
		if f == "6" {
			f = "5" // Figure 5 covers the paper's Figures 5 and 6
		}
		if !known[f] {
			unknown = append(unknown, fmt.Sprintf("%q", f))
			continue
		}
		want[f] = true
	}
	if len(unknown) > 0 {
		return nil, fmt.Errorf("unknown figure %s (known: %s)",
			strings.Join(unknown, ", "), strings.Join(names, ", "))
	}
	return want, nil
}

// writeObservability emits the post-run artifacts: the metrics snapshot
// (plus BENCH_obs.json, the per-stage totals the benchmark trajectory
// tracks), the Chrome trace, and a human-readable summary on stderr.
func writeObservability(metricsOut, traceOut string) error {
	if metricsOut == "" && traceOut == "" {
		return nil
	}
	if metricsOut != "" {
		f, err := os.Create(metricsOut)
		if err != nil {
			return err
		}
		if err := obs.WriteMetrics(f); err != nil {
			f.Close()
			return fmt.Errorf("writing %s: %w", metricsOut, err)
		}
		if err := f.Close(); err != nil {
			return err
		}
		b, err := os.Create("BENCH_obs.json")
		if err != nil {
			return err
		}
		if err := writeBenchObs(b); err != nil {
			b.Close()
			return fmt.Errorf("writing BENCH_obs.json: %w", err)
		}
		if err := b.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "(metrics written to %s, per-stage totals to BENCH_obs.json)\n", metricsOut)
	}
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		if err := obs.WriteChromeTrace(f); err != nil {
			f.Close()
			return fmt.Errorf("writing %s: %w", traceOut, err)
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "(trace written to %s; load in chrome://tracing or ui.perfetto.dev)\n", traceOut)
	}
	obs.WriteSummary(os.Stderr)
	return nil
}
