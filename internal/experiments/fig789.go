package experiments

import (
	"context"

	"phasemark/internal/trace"
	"phasemark/internal/workloads"
)

// approachEval is one bar of Figures 7/8/9 for one program.
type approachEval struct {
	AvgLen    float64 // Figure 7: average instructions per interval
	Phases    int     // Figure 8: number of unique phase IDs
	Intervals int
	CoVCPI    float64 // Figure 9: weighted per-phase CoV of CPI
}

// workloadEval is the full Figures 7–9 row set for one program.
type workloadEval struct {
	Name       string
	BBV        approachEval // fixed 100k + SimPoint clusters
	Markers    map[string]approachEval
	WholeTiny  float64 // whole-program CoV, 1k fixed intervals
	WholeFixed float64 // whole-program CoV, 100k fixed intervals
}

func (s *Suite) evalWorkload(ctx context.Context, w *workloads.Workload) (*workloadEval, error) {
	ev := &workloadEval{Name: w.Name, Markers: map[string]approachEval{}}

	// BBV baseline: fixed intervals classified by SimPoint; phase IDs are
	// cluster assignments (an offline, input-specific classification — the
	// paper calls this comparison idealized).
	cl, resFixed, err := s.clustered(ctx, w, fixedMode(FixedLen), 10, 0xb5e)
	if err != nil {
		return nil, err
	}
	covBBV := trace.PhaseCoV(resFixed.Intervals, func(iv *trace.Interval) int {
		return cl.Assign[iv.Index]
	}, trace.CPIMetric)
	ev.BBV = approachEval{
		AvgLen:    covBBV.AvgIntervalLen,
		Phases:    cl.K,
		Intervals: covBBV.Intervals,
		CoVCPI:    covBBV.CoV,
	}
	ev.WholeFixed = trace.WholeProgramCoV(resFixed.Intervals, trace.CPIMetric)

	resTiny, err := s.traced(ctx, w, fixedMode(TinyFixed))
	if err != nil {
		return nil, err
	}
	ev.WholeTiny = trace.WholeProgramCoV(resTiny.Intervals, trace.CPIMetric)

	for _, mc := range markerConfigs {
		res, err := s.traced(ctx, w, mc.Name)
		if err != nil {
			return nil, err
		}
		cov := trace.PhaseCoV(res.Intervals, trace.IntervalPhase, trace.CPIMetric)
		ev.Markers[mc.Name] = approachEval{
			AvgLen:    cov.AvgIntervalLen,
			Phases:    cov.Phases,
			Intervals: cov.Intervals,
			CoVCPI:    cov.CoV,
		}
	}
	return ev, nil
}

func fixedMode(n uint64) string { return sprintf("fixed:%d", n) }

var approachOrder = []string{
	"procs no-limit cross", "procs no-limit self",
	"no-limit cross", "no-limit self", "limit 100k-2m",
}

// Fig789 computes the shared evaluation for the eleven-program suite,
// profiling and tracing the workloads in parallel; the returned slice is
// in suite order regardless of the parallelism level.
func (s *Suite) Fig789(ctx context.Context) ([]*workloadEval, error) {
	ws := workloads.Suite79()
	out := make([]*workloadEval, len(ws))
	err := s.ForEachWorkload(ws, func(i int, w *workloads.Workload) error {
		ev, err := s.evalWorkload(ctx, w)
		if err != nil {
			return err
		}
		out[i] = ev
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Fig7 reports average instructions per interval per approach (paper
// Figure 7; BBV uses fixed 100k-instruction intervals).
func (s *Suite) Fig7(ctx context.Context) (*Table, error) {
	evs, err := s.Fig789(ctx)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: "Figure 7: average instructions per interval (millions)",
		Note:  "paper scale 1:100 — our 0.1M fixed intervals stand for the paper's 10M",
		Cols:  append([]string{"program", "BBV"}, approachOrder...),
	}
	var sums = make([]float64, len(approachOrder)+1)
	for _, ev := range evs {
		row := []string{ev.Name, millions(ev.BBV.AvgLen)}
		sums[0] += ev.BBV.AvgLen
		for i, a := range approachOrder {
			m := ev.Markers[a]
			row = append(row, millions(m.AvgLen))
			sums[i+1] += m.AvgLen
		}
		t.AddRow(row...)
	}
	avg := []string{"avg"}
	for _, s := range sums {
		avg = append(avg, millions(s/float64(len(evs))))
	}
	t.AddRow(avg...)
	return t, nil
}

// Fig8 reports the number of unique phase IDs per approach (paper Figure 8).
func (s *Suite) Fig8(ctx context.Context) (*Table, error) {
	evs, err := s.Fig789(ctx)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: "Figure 8: number of phases detected",
		Cols:  append([]string{"program", "BBV"}, approachOrder...),
	}
	sums := make([]int, len(approachOrder)+1)
	for _, ev := range evs {
		row := []string{ev.Name, itoa(ev.BBV.Phases)}
		sums[0] += ev.BBV.Phases
		for i, a := range approachOrder {
			m := ev.Markers[a]
			row = append(row, itoa(m.Phases))
			sums[i+1] += m.Phases
		}
		t.AddRow(row...)
	}
	avg := []string{"avg"}
	for _, s := range sums {
		avg = append(avg, f1(float64(s)/float64(len(evs))))
	}
	t.AddRow(avg...)
	return t, nil
}

// Fig9 reports the weighted per-phase CoV of CPI per approach, plus the
// whole-program variability baselines (paper Figure 9).
func (s *Suite) Fig9(ctx context.Context) (*Table, error) {
	evs, err := s.Fig789(ctx)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: "Figure 9: coefficient of variation of CPI per phase",
		Note:  "whole-program columns treat all intervals as one phase (1k / 100k fixed)",
		Cols: append(append([]string{"program", "BBV"}, approachOrder...),
			"1k whole", "100k whole"),
	}
	n := len(approachOrder) + 3
	sums := make([]float64, n)
	for _, ev := range evs {
		row := []string{ev.Name, pct(ev.BBV.CoVCPI)}
		sums[0] += ev.BBV.CoVCPI
		for i, a := range approachOrder {
			m := ev.Markers[a]
			row = append(row, pct(m.CoVCPI))
			sums[i+1] += m.CoVCPI
		}
		row = append(row, pct(ev.WholeTiny), pct(ev.WholeFixed))
		sums[n-2] += ev.WholeTiny
		sums[n-1] += ev.WholeFixed
		t.AddRow(row...)
	}
	avg := []string{"avg"}
	for _, s := range sums {
		avg = append(avg, pct(s/float64(len(evs))))
	}
	t.AddRow(avg...)
	return t, nil
}
