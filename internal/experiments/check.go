package experiments

import (
	"context"
	"fmt"
	"io"

	"phasemark/internal/check"
	"phasemark/internal/obs"
	"phasemark/internal/trace"
	"phasemark/internal/workloads"
)

// Invariant-suite metrics: how many invariants were evaluated and how
// they fared, visible in -metrics snapshots next to the pipeline stats.
var (
	obsCheckPass = obs.NewCounter("check.pass")
	obsCheckFail = obs.NewCounter("check.fail")
)

// namedCheck is one evaluated invariant: its label and the violation
// (nil when the invariant holds).
type namedCheck struct {
	Name string
	Err  error
}

// checkWorkload runs the full invariant suite for one workload on the
// suite's artifacts, so `spexp -check` shares every artifact (profile,
// marker sets, traced runs, clusterings) with the figures, and a
// combined run computes nothing twice. Its span is a child of ctx's. A
// returned error means an artifact could not be computed at all;
// invariant violations come back in the slice.
func (s *Suite) checkWorkload(ctx context.Context, w *workloads.Workload) ([]namedCheck, error) {
	sp := obs.SpanFromContext(ctx).Child("check.workload", w.Name)
	defer sp.End()
	ctx = obs.ContextWithSpan(ctx, sp)
	prog, err := s.pl.Program(ctx, w.Name)
	if err != nil {
		return nil, err
	}

	var out []namedCheck
	add := func(name string, err error) {
		out = append(out, namedCheck{Name: name, Err: err})
	}

	// (a) Segmentation invariants: intervals tile [0, Instructions) with
	// per-interval BBV mass equal to interval length — for the fixed-length
	// baseline and for both marker-cut (VLI) modes the figures measure.
	resFixed, err := s.traced(ctx, w, fixedMode(FixedLen))
	if err != nil {
		return nil, err
	}
	add("seg/fixed", check.Segmentation(resFixed, -1))
	var resLimit *trace.Result
	for _, mode := range []string{"no-limit cross", "limit 100k-2m"} {
		set, err := s.markers(ctx, w, mode)
		if err != nil {
			return nil, err
		}
		res, err := s.traced(ctx, w, mode)
		if err != nil {
			return nil, err
		}
		add("seg/vli["+mode+"]", check.Segmentation(res, len(set.Markers)))
		if mode == "limit 100k-2m" {
			resLimit = res
		}
	}

	// (e) Streaming and (g) pipeline-parallel equivalence: the chunked,
	// arena-recycling emission mode must reproduce the materialized
	// traces above bit-for-bit — intervals, totals, streamed clustering
	// and CoV — in both cutting modes, on the serial path (stream/*) and
	// on the record/replay split at workers 2 (stream-par/*; every count
	// from 2 up takes that one path). The cached materialized results
	// serve as the reference, and their own configurations drive the
	// streamed runs, so this re-runs only the streaming side.
	for _, m := range []struct {
		name, mode string
		want       *trace.Result
	}{{"fixed", fixedMode(FixedLen), resFixed}, {"vli", "limit 100k-2m", resLimit}} {
		seg, err := segment(w, m.mode)
		if err != nil {
			return nil, err
		}
		cfg, err := s.pl.Config(ctx, seg)
		if err != nil {
			return nil, err
		}
		add("stream/"+m.name, check.Streaming(cfg, m.want, 1))
		add("stream-par/"+m.name, check.Streaming(cfg, m.want, 2))
	}

	// (d) Clustering invariants over the clusterings Figures 7–9 and 11–12
	// are built from (same cache keys: same kmax and seeds).
	clF, resF, err := s.clustered(ctx, w, fixedMode(FixedLen), 10, 0xb5e)
	if err != nil {
		return nil, err
	}
	add("cluster/fixed", check.Clustering(clF, len(resF.Intervals)))
	clV, resV, err := s.clustered(ctx, w, "limit 100k-2m", 30, 0x1112)
	if err != nil {
		return nil, err
	}
	add("cluster/vli", check.Clustering(clV, len(resV.Intervals)))

	// (b) Differential backend oracle and (c) detector/instrumentation
	// equivalence, both on the marker set the §6.2.1 study selects on the
	// -O0 binary.
	set, err := s.markers(ctx, w, "no-limit cross")
	if err != nil {
		return nil, err
	}
	add("instrument", check.DetectorInstrument(prog, set, w.Ref...))
	add("crossbin", check.CrossBinary(w.Source, prog, set, w.Ref...))

	// (f) Placement invariants: the minimized marker placement must fire as
	// the exact restriction of the full set (check.Placement, with the
	// stretch bound enforced where the selection pinned one), and the
	// minimized cut sequence must still segment execution per the tiling
	// invariant — in both cutting modes.
	for _, mm := range minimizedModes {
		full, err := s.markers(ctx, w, mm.Full)
		if err != nil {
			return nil, err
		}
		min, err := s.markers(ctx, w, mm.Min)
		if err != nil {
			return nil, err
		}
		add("placement/"+mm.Full, check.Placement(prog, full, min, mm.IUpper, w.Ref...))
		res, err := s.traced(ctx, w, mm.Min)
		if err != nil {
			return nil, err
		}
		add("placement-seg/"+mm.Full, check.Segmentation(res, len(min.Markers)))
	}
	return out, nil
}

// RunChecks sweeps the correctness harness over every workload on the
// suite's worker pool and writes a per-workload report to w. It returns
// an error when any invariant is violated (or any artifact fails to
// build), making `spexp -check` a usable CI gate: the differential
// backend oracle, segmentation tiling, clustering sanity, and
// detector/instrumentation equivalence all hold, or the run fails.
// Each workload's span is a child of ctx's.
func (s *Suite) RunChecks(ctx context.Context, w io.Writer) error {
	ws := workloads.All()
	rows := make([][]namedCheck, len(ws))
	err := s.ForEachWorkload(ws, func(i int, wl *workloads.Workload) error {
		cs, err := s.checkWorkload(ctx, wl)
		if err != nil {
			return fmt.Errorf("%s: %w", wl.Name, err)
		}
		rows[i] = cs
		return nil
	})
	if err != nil {
		return err
	}
	checks, failures := 0, 0
	for i, wl := range ws {
		var failed []string
		for _, c := range rows[i] {
			checks++
			if c.Err != nil {
				failures++
				obsCheckFail.Inc()
				failed = append(failed, fmt.Sprintf("%s: %v", c.Name, c.Err))
			} else {
				obsCheckPass.Inc()
			}
		}
		if len(failed) == 0 {
			fmt.Fprintf(w, "%-12s ok (%d invariants)\n", wl.Name, len(rows[i]))
			continue
		}
		fmt.Fprintf(w, "%-12s FAIL\n", wl.Name)
		for _, f := range failed {
			fmt.Fprintf(w, "    %s\n", f)
		}
	}
	fmt.Fprintf(w, "check: %d workloads, %d invariants, %d violations\n", len(ws), checks, failures)
	if failures > 0 {
		return fmt.Errorf("check: %d invariant(s) violated", failures)
	}
	return nil
}
