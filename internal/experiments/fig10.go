package experiments

import (
	"context"
	"fmt"

	"phasemark/internal/adapt"
	"phasemark/internal/reuse"
	"phasemark/internal/simpoint"
	"phasemark/internal/workloads"
)

// fig10Eval holds the six cache-reconfiguration policies of Figure 10 for
// one workload.
type fig10Eval struct {
	Name      string
	BBV       adapt.PolicyResult // idealized SimPoint over fixed intervals
	SPMSelf   adapt.PolicyResult // software phase markers trained on ref
	ProcsX    adapt.PolicyResult // procedures-only markers trained on train
	ReuseDist adapt.PolicyResult // reuse-distance markers (Shen et al. baseline)
	SPMCross  adapt.PolicyResult // software phase markers trained on train
	BestFixed adapt.PolicyResult
}

func (e *fig10Eval) all() []adapt.PolicyResult {
	return []adapt.PolicyResult{e.BBV, e.SPMSelf, e.ProcsX, e.ReuseDist, e.SPMCross, e.BestFixed}
}

func (s *Suite) fig10One(ctx context.Context, w *workloads.Workload) (*fig10Eval, error) {
	prog, err := s.pl.Program(ctx, w.Name)
	if err != nil {
		return nil, err
	}
	ev := &fig10Eval{Name: w.Name}

	runSPM := func(mode string) (adapt.PolicyResult, error) {
		set, err := s.markers(ctx, w, mode)
		if err != nil {
			return adapt.PolicyResult{}, err
		}
		res, err := adapt.Run(prog, w.Ref, adapt.Source{SPM: set})
		if err != nil {
			return adapt.PolicyResult{}, err
		}
		return adapt.Evaluate(res, nil), nil
	}
	if ev.SPMSelf, err = runSPM("no-limit self"); err != nil {
		return nil, err
	}
	if ev.SPMCross, err = runSPM("no-limit cross"); err != nil {
		return nil, err
	}
	if ev.ProcsX, err = runSPM("procs no-limit cross"); err != nil {
		return nil, err
	}

	// Reuse-distance markers (trained on the train input, like the paper).
	rmk, err := reuse.Select(prog, w.Train)
	if err != nil {
		return nil, err
	}
	resReuse, err := adapt.Run(prog, w.Ref, adapt.Source{Reuse: rmk})
	if err != nil {
		return nil, err
	}
	ev.ReuseDist = adapt.Evaluate(resReuse, nil)

	// Idealized SimPoint: fixed intervals, oracle next-interval phase IDs
	// from offline clustering of the interval BBVs.
	resFixed, err := adapt.Run(prog, w.Ref, adapt.Source{FixedLen: FixedLen})
	if err != nil {
		return nil, err
	}
	proj := newProjection(resFixed.NumBlocks)
	pts := simpoint.NewMatrix(len(resFixed.BBVs), proj.Out())
	wts := make([]float64, len(resFixed.BBVs))
	for i, v := range resFixed.BBVs {
		v.ProjectInto(pts.Row(i), proj)
		wts[i] = float64(resFixed.Intervals[i].Instrs)
	}
	cl := simpoint.Cluster(pts, wts, simpoint.Options{KMax: 10, Seed: 0x10})
	ev.BBV = adapt.Evaluate(resFixed, func(i int) int { return cl.Assign[i] })

	ev.BestFixed = adapt.BestFixed(resFixed)
	return ev, nil
}

func policyCell(p adapt.PolicyResult) string {
	return fmt.Sprintf("%.0f %+0.2f%%", p.AvgCacheKB, 100*(p.MissRate-p.BaseRate))
}

// Fig10 reports the average adaptive cache size per approach (paper
// Figure 10), plus the gcc/vortex results the paper gives in prose. Each
// cell also shows the policy's miss-rate delta against always running the
// full 256 KB cache — software phase markers shrink the cache *without*
// increasing misses, whereas out-of-sync fixed intervals buy their smaller
// sizes with extra misses.
func (s *Suite) Fig10(ctx context.Context) (*Table, error) {
	t := &Table{
		Title: "Figure 10: average cache size KB (and miss-rate delta vs 256KB)",
		Note:  "adaptive cache: 64B x 512 sets x 1-8 ways (32-256KB); explore 2 intervals per phase",
		Cols: []string{"program", "BBV", "SPM-Self", "Procs-Cross",
			"ReuseDist", "SPM-Cross", "BestFixed"},
	}
	suite := workloads.Suite10()
	// The paper reports gcc and vortex cache sizes in the text (Shen's
	// markers were unavailable for them); include them after the suite.
	for _, name := range []string{"gcc", "vortex"} {
		w, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		suite = append(suite, w)
	}
	evs := make([]*fig10Eval, len(suite))
	err := s.ForEachWorkload(suite, func(i int, w *workloads.Workload) error {
		ev, err := s.fig10One(ctx, w)
		if err != nil {
			return fmt.Errorf("fig10 %s: %w", w.Name, err)
		}
		evs[i] = ev
		return nil
	})
	if err != nil {
		return nil, err
	}
	var sums [6]float64
	for _, ev := range evs {
		row := []string{ev.Name}
		for i, p := range ev.all() {
			row = append(row, policyCell(p))
			sums[i] += p.AvgCacheKB
		}
		t.AddRow(row...)
	}
	row := []string{"avg KB"}
	for _, v := range sums {
		row = append(row, f1(v/float64(len(evs))))
	}
	t.AddRow(row...)
	return t, nil
}
