package experiments

import (
	"fmt"

	"phasemark/internal/core"
	"phasemark/internal/trace"
	"phasemark/internal/uarch"
	"phasemark/internal/workloads"
)

// scaleSweep is the §5.1 multi-granularity property: "many programs
// exhibit repeating behavior at different time scales... our call-graph
// can be used to find both large and small scale phase behaviors" — the
// same graph, selected at increasing ILower, yields marker sets whose
// intervals grow with the requested granularity while staying homogeneous.
var scaleSweep = []uint64{10_000, 30_000, 100_000, 300_000, 1_000_000}

// Scales reports, for each program and granularity, the achieved average
// interval length (instructions) and the number of markers selected.
func (s *Suite) Scales() (*Table, error) {
	t := &Table{
		Title: "§5.1: multi-scale marker selection (one call-loop graph, several ilower granularities)",
		Note:  "cells show achieved average interval length / markers selected on the ref input",
		Cols:  []string{"program"},
	}
	for _, il := range scaleSweep {
		t.Cols = append(t.Cols, fmt.Sprintf("ilower %s", millions(float64(il))))
	}
	ws := workloads.Suite79()
	rows := make([][]string, len(ws))
	err := s.ForEachWorkload(ws, func(i int, w *workloads.Workload) error {
		d, err := s.wd(w)
		if err != nil {
			return err
		}
		g, err := d.graph(true)
		if err != nil {
			return err
		}
		row := []string{w.Name}
		for _, il := range scaleSweep {
			set := core.SelectMarkers(g, core.SelectOptions{ILower: il})
			if len(set.Markers) == 0 {
				row = append(row, "-")
				continue
			}
			res, err := trace.Run(trace.Config{
				Prog:    d.prog,
				Args:    w.Ref,
				CPU:     uarch.DefaultConfig(),
				Markers: set,
				SkipBBV: true,
				Workers: d.traceWorkers,
			})
			if err != nil {
				return err
			}
			cov := trace.PhaseCoV(res.Intervals, trace.IntervalPhase, trace.CPIMetric)
			row = append(row, fmt.Sprintf("%s/%d", millions(cov.AvgIntervalLen), len(set.Markers)))
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		t.AddRow(row...)
	}
	return t, nil
}
