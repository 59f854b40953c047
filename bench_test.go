package phasemark_test

// The benchmark harness: one benchmark per table/figure of the paper's
// evaluation (regenerating the same rows/series), ablation benchmarks for
// the design choices DESIGN.md calls out, and the two §5.1 analysis-cost
// comparisons (marker selection against SEQUITUR grammar inference). Run
// everything with:
//
//	go test -bench=. -benchmem
//
// Per-stage timings of the analysis itself (interpretation, profiling,
// marker detection, tracing, projection, clustering) are BenchmarkHotpath's
// job (hotpath_bench_test.go, internal/hotbench); they are not duplicated
// here.
//
// Figure benchmarks report their headline numbers as custom metrics so the
// shape comparison (who wins, by what factor) is visible in benchmark
// output too; the full tables come from `go run ./cmd/spexp -fig all`.

import (
	"context"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"phasemark"
	"phasemark/internal/experiments"
	"phasemark/internal/minivm"
	"phasemark/internal/sequitur"
	"phasemark/internal/workloads"
)

// sharedSuite memoizes profiles/traces across figure benchmarks, as spexp
// does, so the full bench run stays tractable.
var sharedSuite = experiments.NewSuite(runtime.GOMAXPROCS(0))

// avgColumn extracts the avg-row value of a named column. A missing
// column or unparseable cell fails the benchmark: a silent 0 here would
// report a fake headline metric after a table rename.
func avgColumn(b *testing.B, t *experiments.Table, col string) float64 {
	b.Helper()
	ci := -1
	for i, c := range t.Cols {
		if c == col {
			ci = i
		}
	}
	if ci < 0 {
		b.Fatalf("avgColumn: no column %q in table (cols: %v)", col, t.Cols)
	}
	if len(t.Rows) == 0 {
		b.Fatalf("avgColumn: table with column %q has no rows", col)
	}
	last := t.Rows[len(t.Rows)-1] // avg row
	s := strings.TrimSuffix(strings.TrimSuffix(last[ci], "%"), "M")
	fields := strings.Fields(s)
	if len(fields) == 0 {
		b.Fatalf("avgColumn: empty avg cell in column %q", col)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		b.Fatalf("avgColumn: cannot parse avg cell %q in column %q: %v", last[ci], col, err)
	}
	return v
}

func BenchmarkFig3TimeVarying(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := sharedSuite.Fig3(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4CrossBinary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := sharedSuite.Fig4(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5Projection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := sharedSuite.Fig56(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7IntervalLength(b *testing.B) {
	var t *experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		if t, err = sharedSuite.Fig7(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(avgColumn(b, t, "no-limit self"), "avgIntervalM/noLimitSelf")
	b.ReportMetric(avgColumn(b, t, "limit 100k-2m"), "avgIntervalM/limit")
}

func BenchmarkFig8PhaseCount(b *testing.B) {
	var t *experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		if t, err = sharedSuite.Fig8(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(avgColumn(b, t, "BBV"), "phases/BBV")
	b.ReportMetric(avgColumn(b, t, "no-limit self"), "phases/noLimitSelf")
}

func BenchmarkFig9CoV(b *testing.B) {
	var t *experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		if t, err = sharedSuite.Fig9(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(avgColumn(b, t, "no-limit self"), "covCPIpct/markers")
	b.ReportMetric(avgColumn(b, t, "100k whole"), "covCPIpct/wholeProgram")
}

func BenchmarkFig10CacheReconfig(b *testing.B) {
	var t *experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		if t, err = sharedSuite.Fig10(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(avgColumn(b, t, "SPM-Cross"), "avgCacheKB/SPMCross")
	b.ReportMetric(avgColumn(b, t, "BestFixed"), "avgCacheKB/bestFixed")
}

func BenchmarkFig11SimTime(b *testing.B) {
	var t *experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		if t, err = sharedSuite.Fig11(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(avgColumn(b, t, "VLI_99%"), "simInstrM/VLI99")
	b.ReportMetric(avgColumn(b, t, "SP_100k"), "simInstrM/SP100k")
}

func BenchmarkFig12CPIError(b *testing.B) {
	var t *experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		if t, err = sharedSuite.Fig12(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(avgColumn(b, t, "VLI_99%"), "cpiErrPct/VLI99")
	b.ReportMetric(avgColumn(b, t, "SP_100k"), "cpiErrPct/SP100k")
}

func BenchmarkCrossBinaryTraces(b *testing.B) {
	var t *experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		if t, err = sharedSuite.CrossBinary(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
	matches := 0
	for _, row := range t.Rows {
		if row[len(row)-1] == "YES" {
			matches++
		}
	}
	b.ReportMetric(float64(matches), "programsWithIdenticalTraces")
}

// BenchmarkMarkerSelection times the selection algorithm alone on all
// profiled graphs — the paper's "runs in seconds" claim (§5.1); here it is
// microseconds because the call-loop graphs are small, and the point is
// the O(E + N log N) shape.
func BenchmarkMarkerSelection(b *testing.B) {
	graphs := make([]*phasemark.Graph, 0, 16)
	for _, w := range workloads.All() {
		prog := w.MustCompile(false)
		g, err := phasemark.Profile(prog, w.Train...)
		if err != nil {
			b.Fatal(err)
		}
		graphs = append(graphs, g)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range graphs {
			phasemark.Select(g, phasemark.SelectOptions{ILower: experiments.ILower})
		}
	}
}

// ablationCoV measures the Fig-9 style per-phase CoV of CPI on the ref
// input for a given selection variant, averaged over three representative
// programs (one regular, one alternating, one irregular).
func ablationCoV(b *testing.B, opts phasemark.SelectOptions) (cov float64, markers int) {
	for _, name := range []string{"applu", "gzip", "gcc"} {
		w, err := workloads.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		prog := w.MustCompile(false)
		g, err := phasemark.Profile(prog, w.Ref...)
		if err != nil {
			b.Fatal(err)
		}
		set := phasemark.Select(g, opts)
		markers += len(set.Markers)
		res, err := phasemark.Segment(prog, set, w.Ref...)
		if err != nil {
			b.Fatal(err)
		}
		cov += phasemark.PhaseCoV(res.Intervals, phasemark.IntervalPhase, phasemark.CPIMetric).CoV
	}
	return cov / 3, markers
}

// BenchmarkAblationFlatCoV compares the paper's scaled per-edge CoV
// threshold against a flat avg-only threshold.
func BenchmarkAblationFlatCoV(b *testing.B) {
	var covBase, covFlat float64
	var mBase, mFlat int
	for i := 0; i < b.N; i++ {
		covBase, mBase = ablationCoV(b, phasemark.SelectOptions{ILower: experiments.ILower})
		covFlat, mFlat = ablationCoV(b, phasemark.SelectOptions{ILower: experiments.ILower, FlatCoV: true})
	}
	b.ReportMetric(100*covBase, "covCPIpct/scaled")
	b.ReportMetric(100*covFlat, "covCPIpct/flat")
	b.ReportMetric(float64(mBase), "markers/scaled")
	b.ReportMetric(float64(mFlat), "markers/flat")
}

// BenchmarkAblationNoHeadBody drops head-node edges, simulating a graph
// without the paper's head/body split (§4.2): entry-to-exit aggregation
// disappears and only per-iteration edges remain candidates.
func BenchmarkAblationNoHeadBody(b *testing.B) {
	var covBase, covNoHead float64
	var mBase, mNoHead int
	for i := 0; i < b.N; i++ {
		covBase, mBase = ablationCoV(b, phasemark.SelectOptions{ILower: experiments.ILower})
		covNoHead, mNoHead = ablationCoV(b, phasemark.SelectOptions{ILower: experiments.ILower, NoHeads: true})
	}
	b.ReportMetric(100*covBase, "covCPIpct/full")
	b.ReportMetric(100*covNoHead, "covCPIpct/noHeads")
	b.ReportMetric(float64(mBase), "markers/full")
	b.ReportMetric(float64(mNoHead), "markers/noHeads")
}

// BenchmarkSequiturBaseline measures SEQUITUR grammar inference over a
// dynamic block trace — the per-trace analysis cost the prior approaches
// pay where marker selection runs on the tiny call-loop graph
// (BenchmarkMarkerSelection); the §5.1 speed comparison.
func BenchmarkSequiturBaseline(b *testing.B) {
	w, err := workloads.ByName("gzip")
	if err != nil {
		b.Fatal(err)
	}
	prog := w.MustCompile(false)
	tr := &blockTrace{cap: 200_000}
	m := minivm.NewMachine(prog, tr)
	if _, err := m.Run(w.Train...); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := sequitur.Build(tr.seq)
		if g.InputLen() != len(tr.seq) {
			b.Fatal("bad build")
		}
	}
	b.ReportMetric(float64(len(tr.seq)), "traceEvents")
}

type blockTrace struct {
	minivm.NopObserver
	cap int
	seq []int
}

func (t *blockTrace) OnBlock(blk *minivm.Block) {
	if len(t.seq) < t.cap {
		t.seq = append(t.seq, blk.ID)
	}
}
