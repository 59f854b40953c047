package main

import (
	"fmt"
	"os"
	"strings"

	"phasemark/internal/hotbench"
)

// runBench measures the shared hot-path benchmark stages
// (internal/hotbench — the same suite CI's perf gate runs as
// BenchmarkHotpath) and records them under label in the
// phasemark/bench-hotpath/v3 report at outPath. stageFilter selects a
// comma-separated subset of stages (empty = all); naming a stage that
// does not exist is a usage error (exit 2), matching the -fig
// convention. scale is the trace amplifier applied to the streaming
// stages (see hotbench.StagesScaled); main validates it before calling.
// An existing run with the same label is updated stage-wise; other runs
// and unmeasured stages are preserved, so the file accumulates the
// before/after history of performance work. Progress and per-stage
// results go to stderr; stdout is untouched.
func runBench(outPath, label, stageFilter string, scale int) error {
	stages := hotbench.StagesScaled(scale)
	if stageFilter != "" {
		var names []string
		for _, n := range strings.Split(stageFilter, ",") {
			if n = strings.TrimSpace(n); n != "" {
				names = append(names, n)
			}
		}
		var err error
		stages, err = hotbench.StagesNamed(names, scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "spexp: %v\n", err)
			os.Exit(2)
		}
	}
	rep, err := hotbench.LoadReport(outPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "benchmarking hot-path stages (label %q):\n", label)
	run, err := hotbench.Measure(label, stages, os.Stderr)
	if err != nil {
		return err
	}
	rep.SetRun(run)
	f, err := os.Create(outPath)
	if err != nil {
		return err
	}
	if err := rep.Write(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", outPath, err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "(hot-path benchmark results written to %s)\n", outPath)
	if rss, ok := peakRSSKB(); ok {
		fmt.Fprintf(os.Stderr, "peak-rss-kb: %d\n", rss)
	}
	return nil
}

// peakRSSKB reports the process's high-water resident set size in
// kilobytes, read from /proc/self/status (Linux only; ok is false
// elsewhere). CI's memory-bound smoke asserts on this line after running
// the streaming stage at a large -scale: a bounded pipeline's RSS must
// not grow with the amplified trace length.
func peakRSSKB() (int64, bool) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, found := strings.CutPrefix(line, "VmHWM:"); found {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				var kb int64
				if _, err := fmt.Sscan(f[0], &kb); err == nil {
					return kb, true
				}
			}
		}
	}
	return 0, false
}
