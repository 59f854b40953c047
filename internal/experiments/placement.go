package experiments

import (
	"context"
	"fmt"
	"strings"

	"phasemark/internal/core"
	"phasemark/internal/trace"
	"phasemark/internal/workloads"
)

// SetPlacementModes restricts the Placement table to a comma-separated
// subset of the minimized modes ("cross", "limit"). Empty selects all.
// Unknown names are an error listing the valid ones, mirroring spexp's
// -bench-stages convention.
func (s *Suite) SetPlacementModes(csv string) error {
	if strings.TrimSpace(csv) == "" {
		s.placementModes = nil
		return nil
	}
	known := make([]string, 0, len(minimizedModes))
	for _, mm := range minimizedModes {
		known = append(known, mm.Short)
	}
	want := map[string]bool{}
	var unknown []string
	for _, m := range strings.Split(csv, ",") {
		m = strings.TrimSpace(m)
		ok := false
		for _, k := range known {
			if m == k {
				ok = true
				break
			}
		}
		if !ok {
			unknown = append(unknown, fmt.Sprintf("%q", m))
			continue
		}
		want[m] = true
	}
	if len(unknown) > 0 {
		return fmt.Errorf("unknown placement mode %s (known: %s)",
			strings.Join(unknown, ", "), strings.Join(known, ", "))
	}
	s.placementModes = want
	return nil
}

// placementEval is the before/after comparison for one workload and one
// minimized mode.
type placementEval struct {
	Full, Kept         int     // marker-set sizes
	CostFull, CostKept uint64  // detector site traversals on the profile
	AvgFull, AvgKept   float64 // mean interval length on the ref run
	MaxFull, MaxKept   uint64  // longest interval on the ref run
}

// ivlStats summarizes an interval-length distribution.
func ivlStats(ivs []*trace.Interval) (avg float64, max uint64) {
	if len(ivs) == 0 {
		return 0, 0
	}
	var sum uint64
	for _, iv := range ivs {
		l := iv.Len()
		sum += l
		if l > max {
			max = l
		}
	}
	return float64(sum) / float64(len(ivs)), max
}

// Placement reports the minimum-cost marker placement against the full
// selection for every workload: marker-set size, detector site cost on the
// selection profile, and the ref-run interval-length distribution, before
// and after core.MinimizeMarkers — per minimized mode (filter with
// SetPlacementModes / spexp -placement-modes).
func (s *Suite) Placement(ctx context.Context) (*Table, error) {
	var modes []int
	for i, mm := range minimizedModes {
		if s.placementModes == nil || s.placementModes[mm.Short] {
			modes = append(modes, i)
		}
	}
	ws := workloads.All()
	evs := make([]map[string]placementEval, len(ws))
	err := s.ForEachWorkload(ws, func(i int, w *workloads.Workload) error {
		evs[i] = map[string]placementEval{}
		for _, mi := range modes {
			mm := minimizedModes[mi]
			full, err := s.markers(ctx, w, mm.Full)
			if err != nil {
				return err
			}
			min, err := s.markers(ctx, w, mm.Min)
			if err != nil {
				return err
			}
			g, err := s.pl.Graph(ctx, w.Name, mm.Ref)
			if err != nil {
				return err
			}
			resFull, err := s.traced(ctx, w, mm.Full)
			if err != nil {
				return err
			}
			resMin, err := s.traced(ctx, w, mm.Min)
			if err != nil {
				return err
			}
			ev := placementEval{
				Full:     len(full.Markers),
				Kept:     len(min.Markers),
				CostFull: core.SiteCost(g, full),
				CostKept: core.SiteCost(g, min),
			}
			ev.AvgFull, ev.MaxFull = ivlStats(resFull.Intervals)
			ev.AvgKept, ev.MaxKept = ivlStats(resMin.Intervals)
			evs[i][mm.Short] = ev
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: "Placement: minimum-cost marker placement (full -> minimized)",
		Note:  "sites = detector site traversals on the selection profile; intervals from the ref run",
	}
	cols := []string{"program"}
	for _, mi := range modes {
		p := minimizedModes[mi].Short
		cols = append(cols, p+" markers", p+" sites", p+" avg ivl", p+" max ivl")
	}
	t.Cols = cols
	for i, w := range ws {
		row := []string{w.Name}
		for _, mi := range modes {
			ev := evs[i][minimizedModes[mi].Short]
			row = append(row,
				sprintf("%d->%d", ev.Full, ev.Kept),
				costDelta(ev.CostFull, ev.CostKept),
				sprintf("%s->%s", millions(ev.AvgFull), millions(ev.AvgKept)),
				sprintf("%s->%s", millions(float64(ev.MaxFull)), millions(float64(ev.MaxKept))),
			)
		}
		t.AddRow(row...)
	}
	return t, nil
}

// costDelta renders a site-cost change as a percentage reduction. The
// display is clamped so a nonzero surviving cost never rounds to -100%
// and an unchanged cost reads 0%, not -0.0%.
func costDelta(full, kept uint64) string {
	if full == 0 || kept == full {
		return "0%"
	}
	pct := 100 * (1 - float64(kept)/float64(full))
	if kept > 0 && pct > 99.9 {
		pct = 99.9
	}
	if pct < 0.1 { // kept is a subset, so any change is a reduction
		pct = 0.1
	}
	return sprintf("-%.1f%%", pct)
}
