package experiments

import (
	"context"
	"sort"

	"phasemark/internal/bbv"
	"phasemark/internal/trace"
	"phasemark/internal/workloads"
)

// Fig56 reproduces the bzip2 interval-space visualization (paper Figures
// 5/6). The paper projects interval BBVs to 3-D and argues visually that
// marker-defined variable-length intervals form tight clouds around the
// program's dominant code regions, while fixed-length intervals scatter
// "strings of points" between the clouds: an interval straddling a phase
// transition executes a blend of two regions' code and lands between them.
//
// We quantify exactly that: dominant-region signatures are the
// instruction-weighted mean BBVs of the major phases (phases >= 2% of
// execution, taken from the marker segmentation, whose intervals begin at
// code boundaries by construction; the no-limit markers align intervals
// with whole stages, matching the paper's Figure 6). An interval is a *transition blend* if
// its BBV is far from every signature. Fixed-length slicing produces such
// blends at phase changes; marker-synchronized slicing encapsulates each
// transition in its own interval.
func (s *Suite) Fig56(ctx context.Context) (*Table, error) {
	w, err := workloads.ByName("bzip2")
	if err != nil {
		return nil, err
	}
	resFixed, err := s.traced(ctx, w, fixedMode(FixedLen))
	if err != nil {
		return nil, err
	}
	resVLI, err := s.traced(ctx, w, "no-limit self")
	if err != nil {
		return nil, err
	}

	// Dominant-region signatures: weighted mean BBV per major phase.
	type acc struct {
		sum map[int32]float64
		wt  float64
	}
	accs := map[int]*acc{}
	var total float64
	for _, iv := range resVLI.Intervals {
		a := accs[iv.PhaseID]
		if a == nil {
			a = &acc{sum: map[int32]float64{}}
			accs[iv.PhaseID] = a
		}
		n := iv.BBV.Normalized()
		for i, id := range n.Idx {
			a.sum[id] += n.Val[i] * float64(iv.Len())
		}
		a.wt += float64(iv.Len())
		total += float64(iv.Len())
	}
	var sigs []bbv.Vector
	for _, a := range accs {
		if a.wt < 0.02*total {
			continue
		}
		ids := make([]int32, 0, len(a.sum))
		for id := range a.sum {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		v := bbv.Vector{Idx: ids, Val: make([]float64, len(ids))}
		for i, id := range ids {
			v.Val[i] = a.sum[id] / a.wt
		}
		sigs = append(sigs, v)
	}

	// Instruction-weighted: the paper's clouds are made of execution mass,
	// and a 2-instruction marker-chain connector interval is not a phase.
	const blendDist = 0.35
	measure := func(res *trace.Result) (n int, meanDist, blendFrac float64) {
		var wsum, blendW float64
		for _, iv := range res.Intervals {
			best := 2.0
			for _, sig := range sigs {
				if dd := bbv.ManhattanNormed(iv.BBV, sig); dd < best {
					best = dd
				}
			}
			wt := float64(iv.Len())
			meanDist += best * wt
			wsum += wt
			if best > blendDist {
				blendW += wt
			}
			n++
		}
		if wsum > 0 {
			meanDist /= wsum
			blendFrac = blendW / wsum
		}
		return n, meanDist, blendFrac
	}
	fn, fd, fb := measure(resFixed)
	vn, vd, vb := measure(resVLI)
	t := &Table{
		Title: "Figures 5/6: bzip2 interval point clouds vs dominant code regions",
		Note:  "blend = execution in intervals farther than 0.35 from every dominant-region signature",
		Cols:  []string{"representation", "intervals", "mean dist to region", "blended execution"},
	}
	t.AddRow("fixed 100k (Fig 5)", itoa(fn), f3(fd), pct(fb))
	t.AddRow("phase-marker VLIs (Fig 6)", itoa(vn), f3(vd), pct(vb))
	return t, nil
}
