package experiments

import (
	"context"
	"fmt"

	"phasemark/internal/compile"
	"phasemark/internal/core"
	"phasemark/internal/crossbin"
	"phasemark/internal/minivm"
	"phasemark/internal/trace"
	"phasemark/internal/uarch"
	"phasemark/internal/workloads"
)

// tvPoint is one slice of a time-varying series.
type tvPoint struct {
	Instr   uint64
	CPI     float64
	DL1Miss float64
	Marker  int // -1 when no marker fired in this slice; else marker index
}

// timeVarying runs prog on args with fine fixed intervals, recording CPI
// and DL1 miss rate per slice, and overlays marker firings from set. The
// slices are a fixed-length trace.Run's intervals, so they are cut and
// measured exactly as every other trace's; the firings come from a
// detection run over the same input.
func timeVarying(prog *minivm.Program, args []int64, set *core.MarkerSet, slice uint64, workers int) ([]tvPoint, error) {
	res, err := trace.Run(trace.Config{
		Prog:     prog,
		Args:     args,
		CPU:      uarch.DefaultConfig(),
		FixedLen: slice,
		SkipBBV:  true,
		Workers:  workers,
	})
	if err != nil {
		return nil, err
	}
	fires, _, _, err := core.DetectFirings(prog, set, args...)
	if err != nil {
		return nil, err
	}
	// Attach the first marker firing that lands in each slice. The slices
	// tile the run, so the firings before a slice's End that earlier
	// slices left are its own.
	points := make([]tvPoint, len(res.Intervals))
	fi := 0
	for i, iv := range res.Intervals {
		p := tvPoint{Instr: iv.End, CPI: iv.CPI(), DL1Miss: iv.Perf.L1MissRate(), Marker: -1}
		if fi < len(fires) && fires[fi].At < iv.End {
			p.Marker = fires[fi].Marker
			for fi < len(fires) && fires[fi].At < iv.End {
				fi++ // only the first marker per slice is plotted
			}
		}
		points[i] = p
	}
	return points, nil
}

func tvTable(title, note string, pts []tvPoint) *Table {
	t := &Table{Title: title, Note: note,
		Cols: []string{"instrs", "CPI", "DL1 miss", "marker"}}
	stride := len(pts)/60 + 1
	for i, p := range pts {
		if p.Marker < 0 && i%stride != 0 {
			continue // keep the series readable: all markers + a sampled baseline
		}
		mk := ""
		if p.Marker >= 0 {
			mk = fmt.Sprintf("M%d", p.Marker)
		}
		t.AddRow(millions(float64(p.Instr)), f3(p.CPI), pct(p.DL1Miss), mk)
	}
	return t
}

// Fig3 reproduces the gzip time-varying graph: CPI and DL1 miss rate over
// time with phase-marker firings overlaid (paper Figure 3).
func (s *Suite) Fig3(ctx context.Context) (*Table, error) {
	w, err := workloads.ByName("gzip")
	if err != nil {
		return nil, err
	}
	prog, err := s.pl.Program(ctx, w.Name)
	if err != nil {
		return nil, err
	}
	set, err := s.markers(ctx, w, "no-limit self")
	if err != nil {
		return nil, err
	}
	pts, err := timeVarying(prog, w.Ref, set, 20_000, s.pl.Workers())
	if err != nil {
		return nil, err
	}
	return tvTable(
		"Figure 3: gzip time-varying CPI / DL1 miss rate with phase markers",
		"markers fire at the start of each repeating phase; alternating high/low miss phases visible",
		pts), nil
}

// Fig4 reproduces the cross-ISA time-varying graph: markers selected on
// the register-machine binary are mapped through source positions to the
// stack-machine binary of the same source — a different instruction set
// with a different dynamic instruction mix, standing in for the paper's
// Alpha→x86 mapping — and still detect the same high-level phase pattern
// (paper Figure 4; "no call-loop graph was created for the x86 binary").
func (s *Suite) Fig4(ctx context.Context) (*Table, error) {
	w, err := workloads.ByName("gzip")
	if err != nil {
		return nil, err
	}
	prog, err := s.pl.Program(ctx, w.Name)
	if err != nil {
		return nil, err
	}
	set, err := s.markers(ctx, w, "no-limit self")
	if err != nil {
		return nil, err
	}
	stackBin, err := compile.CompileSource(w.Source, compile.Options{Stack: true})
	if err != nil {
		return nil, err
	}
	mapped, rep := crossbin.MapMarkers(set, prog, stackBin)
	pts, err := timeVarying(stackBin, w.Ref, mapped, 60_000, s.pl.Workers())
	if err != nil {
		return nil, err
	}
	t := tvTable(
		"Figure 4: cross-ISA time-varying graph (markers mapped register ISA -> stack ISA)",
		fmt.Sprintf("markers mapped via source positions: %d/%d mapped, %d unmapped; no call-loop graph built for the stack binary",
			rep.Mapped, len(set.Markers), len(rep.Unmapped)),
		pts)
	return t, nil
}
