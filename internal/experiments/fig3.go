package experiments

import (
	"fmt"

	"phasemark/internal/compile"
	"phasemark/internal/core"
	"phasemark/internal/crossbin"
	"phasemark/internal/lang"
	"phasemark/internal/minivm"
	"phasemark/internal/trace"
	"phasemark/internal/uarch"
	"phasemark/internal/workloads"
)

// timeVarying runs prog on args with fine fixed intervals, recording CPI
// and DL1 miss rate per slice, and overlays marker firings from set.
type tvPoint struct {
	Instr   uint64
	CPI     float64
	DL1Miss float64
	Marker  int // -1 when no marker fired in this slice; else marker index
}

func timeVarying(prog *minivm.Program, args []int64, set *core.MarkerSet, slice uint64) ([]tvPoint, error) {
	var fires []struct {
		at uint64
		id int
	}
	det := core.NewDetector(prog, nil, set, func(marker int, at uint64) {
		fires = append(fires, struct {
			at uint64
			id int
		}{at, marker})
	})
	// Each slice's point is its counter delta at the cut; empty slices
	// record none.
	cpu := uarch.NewCPU(uarch.DefaultConfig(), prog)
	var points []tvPoint
	var prev uarch.Counters
	cut := func(at uint64) {
		now := cpu.Counters()
		d := now.Sub(prev)
		prev = now
		if d.Instrs > 0 {
			points = append(points, tvPoint{Instr: at, CPI: d.CPI(), DL1Miss: d.L1MissRate()})
		}
	}
	m := minivm.NewMachine(prog, minivm.MultiObserver{det, cpu, trace.NewFixedCutter(slice, cut)})
	if _, err := m.Run(args...); err != nil {
		return nil, err
	}
	cut(m.Instructions())
	// Attach the first marker firing that lands in each slice.
	fi := 0
	for i := range points {
		points[i].Marker = -1
		end := points[i].Instr
		start := end - slice
		for fi < len(fires) && fires[fi].at < start {
			fi++
		}
		if fi < len(fires) && fires[fi].at < end {
			points[i].Marker = fires[fi].id
			fi++
			for fi < len(fires) && fires[fi].at < end {
				fi++ // only the first marker per slice is plotted
			}
		}
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
func (s *Suite) Fig3() (*Table, error) {
	w, err := workloads.ByName("gzip")
	if err != nil {
		return nil, err
	}
	d, err := s.wd(w)
	if err != nil {
		return nil, err
	}
	set, err := d.markerSet("no-limit self")
	if err != nil {
		return nil, err
	}
	pts, err := timeVarying(d.prog, w.Ref, set, 20_000)
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
func (s *Suite) Fig4() (*Table, error) {
	w, err := workloads.ByName("gzip")
	if err != nil {
		return nil, err
	}
	d, err := s.wd(w)
	if err != nil {
		return nil, err
	}
	set, err := d.markerSet("no-limit self")
	if err != nil {
		return nil, err
	}
	f, err := lang.Parse(w.Source)
	if err != nil {
		return nil, err
	}
	stackBin, err := compile.Compile(f, compile.Options{Stack: true})
	if err != nil {
		return nil, err
	}
	mapped, rep, err := crossbin.MapMarkers(set, d.prog, stackBin)
	if err != nil {
		return nil, err
	}
	pts, err := timeVarying(stackBin, w.Ref, mapped, 60_000)
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
