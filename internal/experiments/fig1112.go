package experiments

import (
	"context"

	"phasemark/internal/simpoint"
	"phasemark/internal/stats"
	"phasemark/internal/workloads"
)

func newProjection(numBlocks int) *stats.Projection {
	return stats.NewProjection(numBlocks, 15, 0x515)
}

// spConfig is one bar of Figures 11/12.
type spConfig struct {
	Name     string
	Fixed    uint64 // fixed interval length; 0 = phase-marker VLIs
	KMax     int
	Coverage float64 // cluster-weight coverage filter (1.0 = all points)
}

// spConfigs mirrors the paper's six configurations (scaled 1:100): fixed
// SimPoint at three interval sizes and VLI SimPoint at three coverages.
var spConfigs = []spConfig{
	{"SP_10k", SPFixed1, 30, 1.0},
	{"SP_100k", SPFixed10, 10, 1.0},
	{"SP_1M", SPFixed100, 5, 1.0},
	{"VLI_95%", 0, 30, 0.95},
	{"VLI_99%", 0, 30, 0.99},
	{"VLI_100%", 0, 30, 1.0},
}

// spEval is one workload's row across all configurations.
type spEval struct {
	Name string
	Res  map[string]simpoint.Estimate
}

func (s *Suite) spOne(ctx context.Context, w *workloads.Workload) (*spEval, error) {
	ev := &spEval{Name: w.Name, Res: map[string]simpoint.Estimate{}}
	for _, cfg := range spConfigs {
		mode := "limit 100k-2m"
		if cfg.Fixed > 0 {
			mode = fixedMode(cfg.Fixed)
		}
		cl, res, err := s.clustered(ctx, w, mode, cfg.KMax, 0x1112)
		if err != nil {
			return nil, err
		}
		pts := simpoint.PickPoints(cl, cl.Points())
		if cfg.Coverage < 1.0 {
			pts = simpoint.Filter(pts, cfg.Coverage)
		}
		ev.Res[cfg.Name] = simpoint.Evaluate(pts, res.Intervals, res.TrueCPI(), cl.K)
	}
	return ev, nil
}

func (s *Suite) spAll(ctx context.Context) ([]*spEval, error) {
	ws := workloads.Suite79()
	out := make([]*spEval, len(ws))
	err := s.ForEachWorkload(ws, func(i int, w *workloads.Workload) error {
		ev, err := s.spOne(ctx, w)
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

// Fig11 reports the detailed-simulation cost (instructions in the chosen
// simulation points) per configuration (paper Figure 11).
func (s *Suite) Fig11(ctx context.Context) (*Table, error) {
	evs, err := s.spAll(ctx)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: "Figure 11: simulated instructions per SimPoint configuration (millions)",
		Note:  "fixed-interval SimPoint at three granularities vs phase-marker VLIs at three coverages",
		Cols:  colNames(),
	}
	sums := make([]float64, len(spConfigs))
	for _, ev := range evs {
		row := []string{ev.Name}
		for i, cfg := range spConfigs {
			e := ev.Res[cfg.Name]
			row = append(row, millions(float64(e.SimulatedIns)))
			sums[i] += float64(e.SimulatedIns)
		}
		t.AddRow(row...)
	}
	row := []string{"avg"}
	for _, v := range sums {
		row = append(row, millions(v/float64(len(evs))))
	}
	t.AddRow(row...)
	return t, nil
}

// Fig12 reports the estimated-CPI relative error per configuration (paper
// Figure 12).
func (s *Suite) Fig12(ctx context.Context) (*Table, error) {
	evs, err := s.spAll(ctx)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: "Figure 12: SimPoint estimated-CPI relative error",
		Cols:  colNames(),
	}
	sums := make([]float64, len(spConfigs))
	for _, ev := range evs {
		row := []string{ev.Name}
		for i, cfg := range spConfigs {
			e := ev.Res[cfg.Name]
			row = append(row, pct(e.RelativeError))
			sums[i] += e.RelativeError
		}
		t.AddRow(row...)
	}
	row := []string{"avg"}
	for _, v := range sums {
		row = append(row, pct(v/float64(len(evs))))
	}
	t.AddRow(row...)
	return t, nil
}

func colNames() []string {
	cols := []string{"program"}
	for _, cfg := range spConfigs {
		cols = append(cols, cfg.Name)
	}
	return cols
}
