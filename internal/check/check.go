// Package check is the correctness harness: a differential backend
// oracle plus invariant checks over every stage of the phase-marker
// pipeline. The paper's headline claims are correctness claims — marker
// firings are identical across compilations of one source (§6.2.1),
// variable-length intervals tile execution exactly, and the physically
// instrumented binary reproduces the analysis-side detector — and this
// package turns each claim into a checkable property.
//
// The checks are pure functions from pipeline artifacts to an error
// (nil = invariant holds), so they run equally from unit tests, from
// fuzz targets, and from `spexp -check`, which sweeps them over every
// workload (see internal/experiments.RunChecks).
package check

import (
	"fmt"
	"math"

	"phasemark/internal/compile"
	"phasemark/internal/core"
	"phasemark/internal/crossbin"
	"phasemark/internal/minivm"
	"phasemark/internal/simpoint"
	"phasemark/internal/trace"
)

// Segmentation verifies that a traced execution's intervals exactly tile
// [0, Instructions): they start at zero, abut with no gaps or overlaps,
// end at the total instruction count, and none is empty. When basic block
// vectors were collected, each interval's BBV mass must equal its
// instruction count (block weights are integers, so the sums are exact in
// float64). numMarkers is the size of the cutting marker set, or -1 for
// fixed-length segmentation; for marker-cut runs the interval count and
// phase IDs must be consistent with MarkerFires.
func Segmentation(res *trace.Result, numMarkers int) error {
	if res == nil {
		return fmt.Errorf("segmentation: nil result")
	}
	ivs := res.Intervals
	if res.Instructions == 0 {
		return fmt.Errorf("segmentation: zero-instruction execution")
	}
	if len(ivs) == 0 {
		return fmt.Errorf("segmentation: no intervals for %d instructions", res.Instructions)
	}
	bbvPresent := false
	for _, iv := range ivs {
		if len(iv.BBV.Idx) > 0 {
			bbvPresent = true
			break
		}
	}
	var cursor uint64
	for i, iv := range ivs {
		if iv.Index != i {
			return fmt.Errorf("segmentation: interval %d carries index %d", i, iv.Index)
		}
		if iv.Start != cursor {
			return fmt.Errorf("segmentation: interval %d starts at %d, previous ended at %d (gap or overlap)",
				i, iv.Start, cursor)
		}
		if iv.End <= iv.Start {
			return fmt.Errorf("segmentation: interval %d is empty or inverted: [%d, %d)", i, iv.Start, iv.End)
		}
		cursor = iv.End
		if bbvPresent {
			if mass := iv.BBV.L1(); mass != float64(iv.Len()) {
				return fmt.Errorf("segmentation: interval %d BBV mass %.1f != length %d",
					i, mass, iv.Len())
			}
		}
		switch {
		case numMarkers < 0:
			if iv.PhaseID != trace.ProloguePhase {
				return fmt.Errorf("segmentation: fixed-length interval %d carries phase %d", i, iv.PhaseID)
			}
		default:
			if iv.PhaseID != trace.ProloguePhase && (iv.PhaseID < 0 || iv.PhaseID >= numMarkers) {
				return fmt.Errorf("segmentation: interval %d phase %d out of range [0,%d)", i, iv.PhaseID, numMarkers)
			}
		}
	}
	if cursor != res.Instructions {
		return fmt.Errorf("segmentation: intervals end at %d, execution ran %d instructions",
			cursor, res.Instructions)
	}
	if numMarkers >= 0 {
		// Every interval after the prologue was opened by a firing; firings
		// at an instant already cut (or at the very end) open no interval —
		// so the interval count is bounded by the firing count plus the
		// final prologue-closed interval.
		if uint64(len(ivs)) > res.MarkerFires+1 {
			return fmt.Errorf("segmentation: %d intervals from only %d marker fires",
				len(ivs), res.MarkerFires)
		}
	} else if res.MarkerFires != 0 {
		return fmt.Errorf("segmentation: fixed-length run reports %d marker fires", res.MarkerFires)
	}
	return nil
}

// Streaming verifies the streaming/materializing equivalence claim: a
// chunked, arena-recycling trace.Run over cfg on the serial path
// (Workers 1) must reproduce the materialized reference bit-for-bit —
// every interval (bounds, phase, performance counters, BBV), the run
// totals, and the online per-chunk projection (simpoint.StreamProjector)
// against the batch projection of the same intervals. The comparison is
// incremental — each chunk is checked and released — so the check itself
// stays memory-bounded on the streaming side. cfg must be the
// configuration want was produced with (any Sink/ChunkSize/Workers in it
// is replaced).
func Streaming(cfg trace.Config, want *trace.Result) error {
	if want == nil {
		return fmt.Errorf("streaming: nil reference result")
	}
	const dims, seed = 15, 0xC1
	proj := simpoint.NewStreamProjector(want.NumBlocks, dims, seed)
	next := 0
	cfg.ChunkSize = 64
	cfg.Workers = 1
	cfg.Sink = func(chunk []trace.Interval) error {
		n, err := compareStreamed(chunk, want.Intervals, next)
		if err != nil {
			return err
		}
		next = n
		proj.ObserveChunk(chunk)
		return nil
	}
	sres, err := trace.Run(cfg)
	if err != nil {
		return fmt.Errorf("streaming: %w", err)
	}
	if next != len(want.Intervals) {
		return fmt.Errorf("streaming: %d intervals streamed, %d materialized", next, len(want.Intervals))
	}
	if sres.Intervals != nil {
		return fmt.Errorf("streaming: run materialized %d intervals despite sink", len(sres.Intervals))
	}
	if sres.Instructions != want.Instructions || sres.Total != want.Total ||
		sres.MarkerFires != want.MarkerFires || sres.NumBlocks != want.NumBlocks {
		return fmt.Errorf("streaming: totals differ: instrs %d/%d, fires %d/%d",
			sres.Instructions, want.Instructions, sres.MarkerFires, want.MarkerFires)
	}
	// Online projection must equal the batch projection of the reference.
	batch, batchW := simpoint.ProjectIntervals(want.Intervals, want.NumBlocks, dims, seed)
	pts, weights := proj.Matrix()
	if pts.N != batch.N {
		return fmt.Errorf("streaming: projected %d rows, batch %d", pts.N, batch.N)
	}
	for i := range batch.Data {
		if pts.Data[i] != batch.Data[i] {
			return fmt.Errorf("streaming: projection differs at element %d (row %d)", i, i/dims)
		}
	}
	for i := range batchW {
		if weights[i] != batchW[i] {
			return fmt.Errorf("streaming: projection weight %d differs", i)
		}
	}
	return nil
}

// compareStreamed checks one streamed chunk against the materialized
// reference starting at interval index next, returning the new cursor.
// Every field must match bit-for-bit, including each BBV entry.
func compareStreamed(chunk []trace.Interval, want []*trace.Interval, next int) (int, error) {
	for i := range chunk {
		got := &chunk[i]
		if next >= len(want) {
			return next, fmt.Errorf("streamed interval %d beyond the %d materialized", got.Index, len(want))
		}
		w := want[next]
		if got.Index != w.Index || got.Start != w.Start || got.End != w.End ||
			got.PhaseID != w.PhaseID || got.Perf != w.Perf {
			return next, fmt.Errorf("interval %d: streamed {idx %d [%d,%d) phase %d} vs materialized {idx %d [%d,%d) phase %d}",
				next, got.Index, got.Start, got.End, got.PhaseID, w.Index, w.Start, w.End, w.PhaseID)
		}
		if len(got.BBV.Idx) != len(w.BBV.Idx) {
			return next, fmt.Errorf("interval %d: streamed BBV has %d entries, materialized %d",
				next, len(got.BBV.Idx), len(w.BBV.Idx))
		}
		for j := range got.BBV.Idx {
			if got.BBV.Idx[j] != w.BBV.Idx[j] || got.BBV.Val[j] != w.BBV.Val[j] {
				return next, fmt.Errorf("interval %d: BBV entry %d differs", next, j)
			}
		}
		next++
	}
	return next, nil
}

// StreamingParallel verifies the pipeline-parallel engine's bit-identity
// claim: a trace.Run on the engine (the record/replay split at scale 1)
// must reproduce the materialized reference interval-for-interval AND,
// with the streamed chunks folded into the analysis consumers
// (StreamProjector, StreamKMeans, CoVAccumulator), leave every
// accumulator in a bit-identical state to the serial fold of the same
// reference, at workers 2, 4, and 16. cfg must be the configuration want
// was produced with (any Sink/ChunkSize/Workers in it is replaced).
func StreamingParallel(cfg trace.Config, want *trace.Result) error {
	if want == nil {
		return fmt.Errorf("streaming-parallel: nil reference result")
	}
	const dims, seed, streamK = 15, 0xC1, 8
	kmOpts := simpoint.Options{ForceK: streamK, Dims: dims, Seed: seed, Restarts: 2, MaxIters: 40, Workers: 1}

	// Reference accumulator states: the serial fold over the materialized
	// intervals. (The serial stream reproduces these bit-for-bit per
	// Streaming; re-deriving them from want avoids a third trace run.)
	refProj := simpoint.NewStreamProjector(want.NumBlocks, dims, seed)
	refKM := simpoint.NewStreamKMeans(want.NumBlocks, kmOpts)
	refCov := trace.NewCoVAccumulator(trace.IntervalPhase, trace.CPIMetric)
	for _, iv := range want.Intervals {
		refProj.Observe(iv)
		refKM.Observe(iv)
		refCov.Observe(iv)
	}
	refPts, refW := refProj.Matrix()
	refRes := refKM.Finish()
	refCovRes := refCov.Result()

	for _, workers := range []int{2, 4, 16} {
		c := cfg
		c.ChunkSize = 64
		c.Workers = workers
		proj := simpoint.NewStreamProjector(want.NumBlocks, dims, seed)
		km := simpoint.NewStreamKMeans(want.NumBlocks, kmOpts)
		cov := trace.NewCoVAccumulator(trace.IntervalPhase, trace.CPIMetric)
		next := 0
		c.Sink = func(chunk []trace.Interval) error {
			n, err := compareStreamed(chunk, want.Intervals, next)
			if err != nil {
				return err
			}
			next = n
			proj.ObserveChunk(chunk)
			km.ObserveChunk(chunk)
			cov.ObserveChunk(chunk)
			return nil
		}
		sres, err := trace.Run(c)
		if err != nil {
			return fmt.Errorf("streaming-parallel: workers=%d: %w", workers, err)
		}
		if next != len(want.Intervals) {
			return fmt.Errorf("streaming-parallel: workers=%d: %d intervals streamed, %d materialized",
				workers, next, len(want.Intervals))
		}
		if sres.Instructions != want.Instructions || sres.Total != want.Total ||
			sres.MarkerFires != want.MarkerFires || sres.NumBlocks != want.NumBlocks {
			return fmt.Errorf("streaming-parallel: workers=%d: totals differ: instrs %d/%d, fires %d/%d",
				workers, sres.Instructions, want.Instructions, sres.MarkerFires, want.MarkerFires)
		}

		pts, weights := proj.Matrix()
		if pts.N != refPts.N {
			return fmt.Errorf("streaming-parallel: workers=%d: projected %d rows, reference %d", workers, pts.N, refPts.N)
		}
		for i := range refPts.Data {
			if pts.Data[i] != refPts.Data[i] {
				return fmt.Errorf("streaming-parallel: workers=%d: projection differs at element %d (row %d)",
					workers, i, i/dims)
			}
		}
		for i := range refW {
			if weights[i] != refW[i] {
				return fmt.Errorf("streaming-parallel: workers=%d: projection weight %d differs", workers, i)
			}
		}

		res := km.Finish()
		if res.K != refRes.K || res.Points != refRes.Points || res.SSE != refRes.SSE {
			return fmt.Errorf("streaming-parallel: workers=%d: clustering K/points/SSE %d/%d/%v, reference %d/%d/%v",
				workers, res.K, res.Points, res.SSE, refRes.K, refRes.Points, refRes.SSE)
		}
		for i := range refRes.Centers.Data {
			if res.Centers.Data[i] != refRes.Centers.Data[i] {
				return fmt.Errorf("streaming-parallel: workers=%d: centroid data differs at %d", workers, i)
			}
		}
		for i := range refRes.Mass {
			if res.Mass[i] != refRes.Mass[i] {
				return fmt.Errorf("streaming-parallel: workers=%d: centroid mass %d differs", workers, i)
			}
		}

		if got := cov.Result(); got != refCovRes {
			return fmt.Errorf("streaming-parallel: workers=%d: CoV %+v, reference %+v", workers, got, refCovRes)
		}
	}
	return nil
}

// Clustering verifies a SimPoint classification over numPoints intervals:
// assignments in range [0, K), at least one point per cluster (no empty
// clusters may survive in a chosen result), weights of the right arity
// that are non-negative and sum to 1.
func Clustering(c *simpoint.Clustering, numPoints int) error {
	if c == nil {
		return fmt.Errorf("clustering: nil clustering")
	}
	if numPoints == 0 {
		return nil // degenerate: nothing was clustered
	}
	if c.K < 1 {
		return fmt.Errorf("clustering: K=%d for %d points", c.K, numPoints)
	}
	if len(c.Assign) != numPoints {
		return fmt.Errorf("clustering: %d assignments for %d points", len(c.Assign), numPoints)
	}
	counts := make([]int, c.K)
	for i, a := range c.Assign {
		if a < 0 || a >= c.K {
			return fmt.Errorf("clustering: point %d assigned to cluster %d, K=%d", i, a, c.K)
		}
		counts[a]++
	}
	if numPoints >= c.K {
		for cl, n := range counts {
			if n == 0 {
				return fmt.Errorf("clustering: cluster %d of %d is empty", cl, c.K)
			}
		}
	}
	if len(c.Weights) != c.K {
		return fmt.Errorf("clustering: %d weights for K=%d", len(c.Weights), c.K)
	}
	var sum float64
	for cl, w := range c.Weights {
		if w < 0 || math.IsNaN(w) {
			return fmt.Errorf("clustering: cluster %d weight %v", cl, w)
		}
		sum += w
	}
	if math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("clustering: weights sum to %.12f, want 1", sum)
	}
	return nil
}

// DetectorInstrument verifies the detector/instrumentation equivalence
// claim: running the physically rewritten binary (core.Instrument) must
// reproduce the analysis-side detector's firing sequence marker-for-
// marker, and the inserted marks must not change the program's observable
// behavior (out() stream and return value).
func DetectorInstrument(prog *minivm.Program, set *core.MarkerSet, args ...int64) error {
	det, md, err := core.DetectFirings(prog, set, args...)
	if err != nil {
		return fmt.Errorf("detector/instrument: %w", err)
	}
	inst, mi, err := core.InstrumentedFirings(prog, set, args...)
	if err != nil {
		return fmt.Errorf("detector/instrument: %w", err)
	}
	if err := equalOutputs(md.Output(), mi.Output()); err != nil {
		return fmt.Errorf("detector/instrument: instrumentation changed behavior: %w", err)
	}
	if len(det) != len(inst) {
		return fmt.Errorf("detector/instrument: %d detector fires vs %d instrumented fires",
			len(det), len(inst))
	}
	for i := range det {
		if det[i].Marker != inst[i].Marker {
			return fmt.Errorf("detector/instrument: firing %d is marker %d in the detector, %d in the binary",
				i, det[i].Marker, inst[i].Marker)
		}
	}
	return nil
}

// Placement verifies the core.MinimizeMarkers contract for one program
// and input: min must be a strict-or-equal subset of full with every
// surviving marker unchanged, both sets run to the same instruction total,
// and the minimized firing sequence must be exactly the full sequence
// restricted to the kept markers — same instants, same markers, indices
// remapped. That restriction property is what makes pruning safe: kept
// markers fire identically with or without their pruned peers. When
// iupper > 0 the tiling bound is enforced too: the longest uncut stretch
// under the minimized set may exceed the full set's longest stretch by at
// most iupper (one pruned-dominator gap). Pass iupper == 0 to skip the
// bound — e.g. for cross-trained sets, where profile-derived static bounds
// do not transfer to the run input.
func Placement(prog *minivm.Program, full, min *core.MarkerSet, iupper uint64, args ...int64) error {
	if full == nil || min == nil {
		return fmt.Errorf("placement: nil marker set")
	}
	if len(min.Markers) > len(full.Markers) {
		return fmt.Errorf("placement: minimized set has %d markers, full set %d",
			len(min.Markers), len(full.Markers))
	}
	if len(full.Markers) > 0 && len(min.Markers) == 0 {
		return fmt.Errorf("placement: minimization emptied a %d-marker set", len(full.Markers))
	}
	fullBy := full.ByKey()
	remap := make(map[int]int, len(min.Markers)) // full index -> min index
	for i, m := range min.Markers {
		fi, ok := fullBy[m.Key]
		if !ok {
			return fmt.Errorf("placement: marker %s not in the full set", m.Key)
		}
		if full.Markers[fi] != m {
			return fmt.Errorf("placement: marker %s changed by minimization", m.Key)
		}
		remap[fi] = i
	}
	fullSeq, mf, err := core.DetectFirings(prog, full, args...)
	if err != nil {
		return fmt.Errorf("placement: full detect: %w", err)
	}
	minSeq, mm, err := core.DetectFirings(prog, min, args...)
	if err != nil {
		return fmt.Errorf("placement: minimized detect: %w", err)
	}
	if mf.Instructions() != mm.Instructions() {
		return fmt.Errorf("placement: instruction totals differ: full=%d minimized=%d",
			mf.Instructions(), mm.Instructions())
	}
	k := 0
	for _, f := range fullSeq {
		mi, kept := remap[f.Marker]
		if !kept {
			continue
		}
		if k >= len(minSeq) {
			return fmt.Errorf("placement: kept marker %s firing at %d missing from minimized run",
				min.Markers[mi].Key, f.At)
		}
		if minSeq[k].Marker != mi || minSeq[k].At != f.At {
			return fmt.Errorf("placement: firing %d diverges: full restricted to kept gives marker %d at %d, minimized run gives marker %d at %d",
				k, mi, f.At, minSeq[k].Marker, minSeq[k].At)
		}
		k++
	}
	if k != len(minSeq) {
		return fmt.Errorf("placement: minimized run fired %d times, restriction of full predicts %d",
			len(minSeq), k)
	}
	if iupper > 0 {
		total := mf.Instructions()
		fullGap := maxFiringGap(fullSeq, total)
		minGap := maxFiringGap(minSeq, total)
		if minGap > fullGap+iupper {
			return fmt.Errorf("placement: longest uncut stretch grew from %d to %d, beyond the iupper=%d allowance",
				fullGap, minGap, iupper)
		}
	}
	return nil
}

// maxFiringGap returns the longest uncut stretch over a run of total
// instructions (duplicate cut instants collapse).
func maxFiringGap(seq []core.Firing, total uint64) uint64 {
	var gap, prev uint64
	for _, f := range seq {
		if f.At == prev {
			continue
		}
		if d := f.At - prev; d > gap {
			gap = d
		}
		prev = f.At
	}
	if d := total - prev; d > gap {
		gap = d
	}
	return gap
}

// Backends compiles src with each differential-oracle backend: the -O0
// register binary (the analysis reference), the optimizing register
// build, and the stack-machine ISA.
func Backends(src string) (o0, opt, stack *minivm.Program, err error) {
	if o0, err = compile.CompileSource(src, compile.Options{}); err != nil {
		return nil, nil, nil, fmt.Errorf("backends: -O0: %w", err)
	}
	if opt, err = compile.CompileSource(src, compile.Options{Optimize: true}); err != nil {
		return nil, nil, nil, fmt.Errorf("backends: optimized: %w", err)
	}
	if stack, err = compile.CompileSource(src, compile.Options{Stack: true}); err != nil {
		return nil, nil, nil, fmt.Errorf("backends: stack: %w", err)
	}
	return o0, opt, stack, nil
}

// CrossBinary is the differential backend oracle for one source program:
// all three backends must produce identical observable output on args,
// and markers selected on the -O0 binary, mapped through source debug
// info (internal/crossbin), must fire identically on every binary. When a
// backend compiles some markers away, the surviving subset must still
// fire identically (crossbin.Restrict), matching the §6.2.1 protocol.
// prog must be the -O0 compilation of src that set was selected on.
func CrossBinary(src string, prog *minivm.Program, set *core.MarkerSet, args ...int64) error {
	_, opt, stack, err := Backends(src)
	if err != nil {
		return fmt.Errorf("cross-binary: %w", err)
	}
	seq0, out0, rv0, err := crossbin.TraceOutput(prog, set, args...)
	if err != nil {
		return fmt.Errorf("cross-binary: -O0: %w", err)
	}
	for _, tgt := range []struct {
		name string
		prog *minivm.Program
	}{{"optimized", opt}, {"stack", stack}} {
		mapped, rep, err := crossbin.MapMarkers(set, prog, tgt.prog)
		if err != nil {
			return fmt.Errorf("cross-binary: map to %s: %w", tgt.name, err)
		}
		ref := seq0
		if len(rep.Unmapped) > 0 {
			// Markers compiled away: the surviving subset must still agree.
			restricted := crossbin.Restrict(set, rep.Unmapped)
			if len(restricted.Markers) != rep.Mapped {
				return fmt.Errorf("cross-binary: %s: restrict kept %d markers, mapping kept %d",
					tgt.name, len(restricted.Markers), rep.Mapped)
			}
			if ref, _, _, err = crossbin.TraceOutput(prog, restricted, args...); err != nil {
				return fmt.Errorf("cross-binary: -O0 restricted: %w", err)
			}
		}
		seq, out, rv, err := crossbin.TraceOutput(tgt.prog, mapped, args...)
		if err != nil {
			return fmt.Errorf("cross-binary: %s: %w", tgt.name, err)
		}
		if rv != rv0 {
			return fmt.Errorf("cross-binary: %s returned %d, -O0 returned %d", tgt.name, rv, rv0)
		}
		if err := equalOutputs(out0, out); err != nil {
			return fmt.Errorf("cross-binary: %s output differs from -O0: %w", tgt.name, err)
		}
		if i := firstDiff(ref, seq); i >= 0 {
			return fmt.Errorf("cross-binary: %s marker trace diverges from -O0 at firing %d (of %d vs %d): %s",
				tgt.name, i, len(ref), len(seq), diffAt(ref, seq, i))
		}
	}
	return nil
}

// firstDiff returns the first index where two firing sequences differ
// (length counts), or -1 when identical.
func firstDiff(a, b []int) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return n
	}
	return -1
}

func diffAt(a, b []int, i int) string {
	get := func(s []int) string {
		if i < len(s) {
			return fmt.Sprintf("marker %d", s[i])
		}
		return "end of trace"
	}
	return fmt.Sprintf("%s vs %s", get(a), get(b))
}

func equalOutputs(a, b []int64) error {
	if len(a) != len(b) {
		return fmt.Errorf("out() stream lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("out()[%d] = %d vs %d", i, a[i], b[i])
		}
	}
	return nil
}
