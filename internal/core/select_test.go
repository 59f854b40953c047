package core

import (
	"testing"

	"phasemark/internal/minivm"
)

// phasedProgram alternates between two work procedures, each dominated by
// a stable inner loop — the canonical two-phase program (gzip-like).
const phasedProgram = `
array buf[1024];
proc compress(n) {
	var s = 0;
	for (var i = 0; i < n; i = i + 1) {
		buf[i % 1024] = buf[i % 1024] + i;
		s = s + buf[i % 1024];
	}
	return s;
}
proc expand(n) {
	var s = 0;
	for (var i = 0; i < n; i = i + 1) {
		s = s + buf[(i * 7) % 1024] * 3;
	}
	return s;
}
proc main(reps, n) {
	var s = 0;
	for (var r = 0; r < reps; r = r + 1) {
		s = s + compress(n);
		s = s + expand(n);
	}
	return s;
}
`

func selectOn(t *testing.T, src string, opt bool, opts SelectOptions, args ...int64) (*Graph, *MarkerSet) {
	t.Helper()
	prog := mustCompile(t, src, opt)
	g := mustProfile(t, prog, args...)
	return g, SelectMarkers(g, opts)
}

func TestSelectMarkersFindsPhaseProcedures(t *testing.T) {
	// Each compress/expand call runs ~10*n instructions; ilower below that
	// should mark the two call edges (stable, repeated 20 times each).
	_, set := selectOn(t, phasedProgram, false, SelectOptions{ILower: 2000}, 20, 1000)
	if len(set.Markers) == 0 {
		t.Fatal("no markers selected")
	}
	// Every marker must satisfy the size constraint.
	for _, m := range set.Markers {
		if m.AvgLen < 2000 {
			t.Errorf("marker %s has avg length %.0f < ilower", m.Key, m.AvgLen)
		}
	}
	// The compress and expand call edges should be among the markers
	// (their hierarchical counts are perfectly stable).
	kinds := map[NodeKind]int{}
	for _, m := range set.Markers {
		kinds[m.Key.To.Kind]++
	}
	if kinds[ProcHead] == 0 {
		t.Errorf("expected procedure-entry markers, got %v", kinds)
	}
}

func TestSelectMarkersRespectsCountAndStability(t *testing.T) {
	// A program whose inner work varies wildly per call (data-dependent):
	// the unstable edge must not be marked while a stable sibling is.
	src := `
proc stable(n) {
	var s = 0;
	for (var i = 0; i < n; i = i + 1) { s = s + i; }
	return s;
}
proc unstable(n, r) {
	var lim = (r * r * 2971 + 7) % n + 1;
	var s = 0;
	for (var i = 0; i < lim; i = i + 1) { s = s + i * i; }
	return s;
}
proc main(reps, n) {
	var s = 0;
	for (var r = 0; r < reps; r = r + 1) {
		s = s + stable(n) + unstable(n, r);
	}
	return s;
}
`
	g, set := selectOn(t, src, false, SelectOptions{ILower: 500}, 30, 500)
	byKey := set.ByKey()
	var stableMarked, unstableMarked bool
	for _, e := range g.Edges {
		if e.To.Key.Kind != ProcHead || e.To.Proc == nil {
			continue
		}
		_, marked := byKey[e.Key]
		switch e.To.Proc.Name {
		case "stable":
			stableMarked = stableMarked || marked
		case "unstable":
			unstableMarked = unstableMarked || marked
		}
	}
	if !stableMarked {
		t.Error("stable call edge not marked")
	}
	if unstableMarked {
		t.Error("unstable call edge marked despite high CoV")
	}
}

func TestProcsOnlyMode(t *testing.T) {
	_, set := selectOn(t, phasedProgram, false, SelectOptions{ILower: 2000, ProcsOnly: true}, 20, 1000)
	for _, m := range set.Markers {
		if k := m.Key.To.Kind; k != ProcHead && k != ProcBody {
			t.Errorf("procs-only selected a %v marker: %s", k, m.Key)
		}
	}
}

func TestMaxLimitForcesSmallerMarkers(t *testing.T) {
	// One giant call dominating execution: without a limit the outer call
	// edge is markable; with a small max-limit, markers are pushed down
	// into the loop below it.
	_, noLimit := selectOn(t, phasedProgram, false, SelectOptions{ILower: 2000}, 20, 1000)
	_, limited := selectOn(t, phasedProgram, false, SelectOptions{ILower: 2000, MaxLimit: 5000}, 20, 1000)
	maxAvg := func(s *MarkerSet) float64 {
		var mx float64
		for _, m := range s.Markers {
			if m.AvgLen > mx {
				mx = m.AvgLen
			}
		}
		return mx
	}
	if maxAvg(limited) > 5000*1.5 {
		t.Errorf("limited markers still too large: %.0f", maxAvg(limited))
	}
	if maxAvg(noLimit) < maxAvg(limited) {
		t.Errorf("no-limit should allow larger intervals (%.0f vs %.0f)",
			maxAvg(noLimit), maxAvg(limited))
	}
}

func TestMergeLoopIterations(t *testing.T) {
	// A long flat loop with tiny stable iterations: only mergeable via
	// GroupN. avg iteration ~6 instr, ilower 600 => GroupN ~100+.
	src := `
proc main(n) {
	var s = 0;
	for (var i = 0; i < n; i = i + 1) { s = s + i; }
	return s;
}
`
	_, set := selectOn(t, src, false, SelectOptions{ILower: 600, MaxLimit: 6000}, 20000)
	var grouped *Marker
	for i := range set.Markers {
		if set.Markers[i].GroupN > 1 {
			grouped = &set.Markers[i]
		}
	}
	if grouped == nil {
		t.Fatalf("no grouped marker selected: %+v", set.Markers)
	}
	if grouped.AvgLen < 600 || grouped.AvgLen > 6000 {
		t.Errorf("grouped marker avg length %.0f outside [600, 6000]", grouped.AvgLen)
	}
}

func TestDetectorFiresAcrossInputs(t *testing.T) {
	// Select markers on the "train" input, detect on the "ref" input: the
	// firing counts must scale with the phase repetitions, demonstrating
	// cross-input reuse (the whole point of software markers).
	prog := mustCompile(t, phasedProgram, false)
	gTrain := mustProfile(t, prog, 10, 400)
	set := SelectMarkers(gTrain, SelectOptions{ILower: 1000})
	if len(set.Markers) == 0 {
		t.Fatal("no markers on train input")
	}

	var boundaries []uint64
	det, err := NewDetector(prog, nil, set, func(marker int, at uint64) {
		boundaries = append(boundaries, at)
	})
	if err != nil {
		t.Fatal(err)
	}
	m := minivm.NewMachine(prog, det)
	if _, err := m.Run(40, 400); err != nil {
		t.Fatal(err)
	}
	if det.TotalFired() == 0 {
		t.Fatal("markers never fired on ref input")
	}
	// Boundaries must be sorted and within the run.
	for i := 1; i < len(boundaries); i++ {
		if boundaries[i] < boundaries[i-1] {
			t.Fatalf("boundaries not monotone at %d", i)
		}
	}
	if boundaries[len(boundaries)-1] > m.Instructions() {
		t.Fatal("boundary beyond end of execution")
	}
	// 4x the repetitions should fire roughly 4x the markers.
	var trainFired uint64
	detTrain, err := NewDetector(prog, nil, set, nil)
	if err != nil {
		t.Fatal(err)
	}
	mt := minivm.NewMachine(prog, detTrain)
	if _, err := mt.Run(10, 400); err != nil {
		t.Fatal(err)
	}
	trainFired = detTrain.TotalFired()
	ratio := float64(det.TotalFired()) / float64(trainFired)
	if ratio < 3.5 || ratio > 4.5 {
		t.Errorf("firing ratio %f, want ~4 (cross-input scaling)", ratio)
	}
}

func TestSelectionDeterministic(t *testing.T) {
	_, a := selectOn(t, phasedProgram, true, SelectOptions{ILower: 1500}, 15, 700)
	_, b := selectOn(t, phasedProgram, true, SelectOptions{ILower: 1500}, 15, 700)
	if len(a.Markers) != len(b.Markers) {
		t.Fatalf("marker counts differ: %d vs %d", len(a.Markers), len(b.Markers))
	}
	for i := range a.Markers {
		if a.Markers[i].Key != b.Markers[i].Key || a.Markers[i].GroupN != b.Markers[i].GroupN {
			t.Fatalf("marker %d differs", i)
		}
	}
}
