package core

import (
	"testing"
)

// callLoopProgram: main drives work in a loop; work has a stable inner
// loop. The call edge into work dominates every edge inside work.
const callLoopProgram = `
proc work(n) {
	var s = 0;
	for (var i = 0; i < n; i = i + 1) {
		s = s + i * 3;
	}
	return s;
}
proc main(reps, n) {
	var s = 0;
	for (var r = 0; r < reps; r = r + 1) {
		s = s + work(n);
	}
	return s;
}
`

// markerFor returns the marker index whose edge enters a node of the given
// kind, or -1.
func markerFor(set *MarkerSet, kind NodeKind) int {
	for i, m := range set.Markers {
		if m.Key.To.Kind == kind {
			return i
		}
	}
	return -1
}

// assertRestriction checks the minimization contract on one input: the
// minimized firing sequence must be exactly the full sequence restricted
// to the kept markers (same instants, same markers, remapped indices).
func assertRestriction(t *testing.T, g *Graph, full, min *MarkerSet, args ...int64) ([]Firing, []Firing) {
	t.Helper()
	fullSeq, mf, _, err := DetectFirings(g.Prog, full, args...)
	if err != nil {
		t.Fatalf("detect full: %v", err)
	}
	minSeq, mm, _, err := DetectFirings(g.Prog, min, args...)
	if err != nil {
		t.Fatalf("detect min: %v", err)
	}
	if mf.Instructions() != mm.Instructions() {
		t.Fatalf("instruction counts differ: full=%d min=%d", mf.Instructions(), mm.Instructions())
	}
	fullBy := full.ByKey()
	remap := map[int]int{} // full marker index -> min marker index
	for i, m := range min.Markers {
		fi, ok := fullBy[m.Key]
		if !ok {
			t.Fatalf("minimized marker %s not in full set", m.Key)
		}
		if full.Markers[fi].GroupN != m.GroupN {
			t.Fatalf("marker %s GroupN changed: %d -> %d", m.Key, full.Markers[fi].GroupN, m.GroupN)
		}
		remap[fi] = i
	}
	var filtered []Firing
	for _, f := range fullSeq {
		if mi, ok := remap[f.Marker]; ok {
			filtered = append(filtered, Firing{Marker: mi, At: f.At})
		}
	}
	if len(filtered) != len(minSeq) {
		t.Fatalf("firing counts differ: restricted-full=%d min=%d", len(filtered), len(minSeq))
	}
	for i := range filtered {
		if filtered[i] != minSeq[i] {
			t.Fatalf("firing %d differs: restricted-full=%+v min=%+v", i, filtered[i], minSeq[i])
		}
	}
	return fullSeq, minSeq
}

// maxGap returns the longest uncut stretch given firings over a run of
// total instructions (cut instants deduplicated).
func maxGap(seq []Firing, total uint64) uint64 {
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

func TestMinimizeDominancePrunes(t *testing.T) {
	g, set := selectOn(t, callLoopProgram, false, SelectOptions{ILower: 500}, 40, 200)
	if len(set.Markers) < 2 {
		t.Fatalf("want >=2 markers to make pruning interesting, got %d", len(set.Markers))
	}
	min, rep := MinimizeMarkers(g, set)
	if rep.Full != len(set.Markers) || rep.Kept != len(min.Markers) {
		t.Fatalf("report counts inconsistent: %+v vs %d/%d", rep, len(set.Markers), len(min.Markers))
	}
	if rep.Kept+rep.PrunedDominated+rep.PrunedCoFire+rep.PrunedCover != rep.Full {
		t.Fatalf("report does not partition the set: %+v", rep)
	}
	// On this graph the exact dominance pass does all the pruning; the
	// greedy cover fallback has nothing left to drop.
	if rep.PrunedDominated == 0 || rep.PrunedCover != 0 {
		t.Fatalf("expected dominance pruning alone on a dominated graph: %+v", rep)
	}
	if len(min.Markers) == 0 {
		t.Fatal("minimization emptied the set")
	}
	if rep.KeptCost > rep.FullCost || rep.FullCost != SiteCost(g, set) || rep.KeptCost != SiteCost(g, min) {
		t.Fatalf("report costs %d -> %d, SiteCost %d -> %d", rep.FullCost, rep.KeptCost, SiteCost(g, set), SiteCost(g, min))
	}
	fullSeq, minSeq := assertRestriction(t, g, set, min, 40, 200)
	// Exact-pass-only pruning on the profiled input must respect the
	// stretch bound: one dominator gap plus one full-set interval.
	_, m, _, err := DetectFirings(g.Prog, set, 40, 200)
	if err != nil {
		t.Fatal(err)
	}
	total := m.Instructions()
	if got, bound := maxGap(minSeq, total), rep.EffUpper+maxGap(fullSeq, total); got > bound {
		t.Errorf("minimized max gap %d exceeds bound %d", got, bound)
	}
}

// chunkedProgram nests two call scales: each work() activation is made of
// many chunk() calls an order of magnitude smaller. The call edge into
// chunk is the only marker firing inside a work activation.
const chunkedProgram = `
proc chunk(m) {
	var s = 0;
	for (var i = 0; i < m; i = i + 1) {
		s = s + i * 3;
	}
	return s;
}
proc work(k, m) {
	var s = 0;
	for (var j = 0; j < k; j = j + 1) {
		s = s + chunk(m);
	}
	return s;
}
proc main(reps, k, m) {
	var s = 0;
	for (var r = 0; r < reps; r = r + 1) {
		s = s + work(k, m);
	}
	return s;
}
`

// markerIntoProc returns the index of the marker on a call edge into the
// named procedure's head node, or -1.
func markerIntoProc(g *Graph, set *MarkerSet, name string) int {
	for i, m := range set.Markers {
		if m.Key.To.Kind != ProcHead {
			continue
		}
		if n := g.NodeByKey(m.Key.To); n != nil && n.Proc != nil && n.Proc.Name == name {
			return i
		}
	}
	return -1
}

// TestMinimizeKeepsSoleRegionMarker is the regression guard against
// over-eager dominance pruning: the chunk call-edge marker is the only
// marker firing inside each work() activation, and its dominating
// call-edge marker does NOT satisfy the stretch bound (the set's MaxLimit
// is set below the activation size). Pruning the chunk marker anyway — e.g. by skipping
// the dominator's bound check — leaves every activation's interior uncut
// and fails both assertions here.
func TestMinimizeKeepsSoleRegionMarker(t *testing.T) {
	args := []int64{20, 10, 100}
	g, set := selectOn(t, chunkedProgram, false, SelectOptions{ILower: 500}, args...)
	inner := markerIntoProc(g, set, "chunk")
	outer := markerIntoProc(g, set, "work")
	if inner < 0 || outer < 0 {
		t.Fatalf("want chunk and work call-edge markers, got %v", set.Markers)
	}
	// Restrict to exactly those two markers: the chunk marker is now the
	// only one firing inside a work activation, and the work marker is the
	// only thing dominating it.
	pair := &MarkerSet{Opts: set.Opts, CovBase: set.CovBase, CovSlack: set.CovSlack}
	pair.Markers = append(pair.Markers, set.Markers[inner], set.Markers[outer])
	outerMax := g.EdgeByKey(set.Markers[outer].Key).Max()
	innerMax := g.EdgeByKey(set.Markers[inner].Key).Max()
	// Bound chosen strictly between the chunk size and the whole-activation
	// size: the work call edge cannot vouch for the interior.
	iupper := uint64(outerMax) / 2
	if float64(iupper) <= innerMax*float64(set.Markers[inner].GroupN) {
		t.Fatalf("test geometry broken: iupper=%d innerMax=%.0f", iupper, innerMax)
	}
	pair.Opts.MaxLimit = iupper
	min, rep := MinimizeMarkers(g, pair)
	if rep.EffUpper != iupper {
		t.Fatalf("stretch bound %d, want the set's MaxLimit %d", rep.EffUpper, iupper)
	}
	kept := min.ByKey()
	if _, ok := kept[set.Markers[inner].Key]; !ok {
		t.Fatalf("sole region marker %s was pruned (report %+v)", set.Markers[inner].Key, rep)
	}
	// The kept set must still cut the interior of each activation within
	// the bound (plus one full-set interval of slack).
	fullSeq, minSeq := assertRestriction(t, g, pair, min, args...)
	_, m, _, err := DetectFirings(g.Prog, pair, args...)
	if err != nil {
		t.Fatal(err)
	}
	total := m.Instructions()
	if got, bound := maxGap(minSeq, total), iupper+maxGap(fullSeq, total); got > bound {
		t.Errorf("minimized max gap %d exceeds bound %d: region left uncut", got, bound)
	}
}

func TestMinimizeCoFirePrunesEntryEdges(t *testing.T) {
	g, set := selectOn(t, callLoopProgram, false, SelectOptions{ILower: 500}, 40, 200)
	// Build a two-marker set by hand: the call edge into work and work's
	// head→body edge always open at the same instruction, so the entry
	// marker is a pure duplicate.
	callEdge := markerFor(set, ProcHead)
	if callEdge < 0 {
		t.Fatalf("no call-edge marker in %v", set.Markers)
	}
	head := set.Markers[callEdge].Key.To
	body := g.NodeByKey(NodeKey{Kind: ProcBody, ID: head.ID})
	if body == nil || len(body.In) == 0 {
		t.Fatal("no head->body edge")
	}
	var hb *Edge
	for _, e := range body.In {
		if e.From.Key == head {
			hb = e
		}
	}
	if hb == nil {
		t.Fatal("no head->body edge from the marked head")
	}
	pair := &MarkerSet{Opts: set.Opts}
	pair.Markers = append(pair.Markers,
		set.Markers[callEdge],
		Marker{Key: hb.Key, GroupN: 1, AvgLen: hb.Avg(), CoV: hb.CoV(), Count: hb.Count()})
	min, rep := MinimizeMarkers(g, pair)
	if rep.PrunedCoFire+rep.PrunedDominated == 0 {
		t.Fatalf("expected the entry marker pruned, report %+v", rep)
	}
	if len(min.Markers) != 1 {
		t.Fatalf("want 1 kept marker, got %d", len(min.Markers))
	}
	// The cut instants must be identical: entry and head→body open
	// back-to-back at the same instruction count.
	fullSeq, _, _, err := DetectFirings(g.Prog, pair, 40, 200)
	if err != nil {
		t.Fatal(err)
	}
	minSeq, _, _, err := DetectFirings(g.Prog, min, 40, 200)
	if err != nil {
		t.Fatal(err)
	}
	instants := func(seq []Firing) []uint64 {
		var out []uint64
		for _, f := range seq {
			if len(out) == 0 || out[len(out)-1] != f.At {
				out = append(out, f.At)
			}
		}
		return out
	}
	fi, mi := instants(fullSeq), instants(minSeq)
	if len(fi) != len(mi) {
		t.Fatalf("cut instants differ: full=%d min=%d", len(fi), len(mi))
	}
	for i := range fi {
		if fi[i] != mi[i] {
			t.Fatalf("cut instant %d differs: %d vs %d", i, fi[i], mi[i])
		}
	}
}

func TestMinimizeEmptyAndUnmodifiedInput(t *testing.T) {
	g := mustProfile(t, mustCompile(t, callLoopProgram, false), 4, 50)
	empty := &MarkerSet{Opts: SelectOptions{ILower: 1000}}
	min, rep := MinimizeMarkers(g, empty)
	if len(min.Markers) != 0 || rep.Full != 0 || rep.Kept != 0 {
		t.Fatalf("empty set mishandled: %v %+v", min.Markers, rep)
	}
	if rep.EffUpper != 10*1000 {
		t.Fatalf("effUpper fallback: want ILower*covScale=10000, got %d", rep.EffUpper)
	}

	set := SelectMarkers(g, SelectOptions{ILower: 500})
	before := len(set.Markers)
	keys := make([]EdgeKey, before)
	for i, m := range set.Markers {
		keys[i] = m.Key
	}
	MinimizeMarkers(g, set)
	if len(set.Markers) != before {
		t.Fatalf("input set modified: %d -> %d markers", before, len(set.Markers))
	}
	for i, m := range set.Markers {
		if m.Key != keys[i] {
			t.Fatalf("input marker %d changed", i)
		}
	}
}

func TestSelectMinimizeKnob(t *testing.T) {
	g := mustProfile(t, mustCompile(t, callLoopProgram, false), 40, 200)
	full := SelectMarkers(g, SelectOptions{ILower: 500})
	min := SelectMarkers(g, SelectOptions{ILower: 500, Minimize: true})
	if len(min.Markers) >= len(full.Markers) {
		t.Fatalf("Minimize knob did not shrink the set: %d vs %d", len(min.Markers), len(full.Markers))
	}
	fullBy := full.ByKey()
	for _, m := range min.Markers {
		fi, ok := fullBy[m.Key]
		if !ok {
			t.Fatalf("minimized marker %s not in full selection", m.Key)
		}
		if full.Markers[fi] != m {
			t.Fatalf("marker %s changed by minimization", m.Key)
		}
	}
	if min.CovBase != full.CovBase || min.CovSlack != full.CovSlack {
		t.Fatal("minimization must preserve selection thresholds")
	}
}

func TestDominatorsAugmentedGraph(t *testing.T) {
	g := mustProfile(t, mustCompile(t, callLoopProgram, false), 4, 50)
	dom := newDominators(g)
	// Find the call edge into work and an edge inside work: the former
	// must strictly dominate the latter.
	var call, innerBody *Edge
	for _, e := range g.Edges {
		if e.To.Key.Kind == ProcHead && e.To.Proc != nil && e.To.Proc.Name == "work" {
			call = e
		}
		if e.From.Key.Kind == LoopHead && e.To.Key.Kind == LoopBody &&
			e.From.Loop != nil && e.From.Loop.Proc.Name == "work" {
			innerBody = e
		}
	}
	if call == nil || innerBody == nil {
		t.Fatalf("graph missing expected edges:\n%s", g.Dump())
	}
	cv, bv := dom.edgeVertex(call.Key), dom.edgeVertex(innerBody.Key)
	if cv < 0 || bv < 0 {
		t.Fatal("edges not in dominator structure")
	}
	found := false
	for _, v := range dom.ancestors(bv) {
		if v == cv {
			found = true
		}
	}
	if !found {
		t.Errorf("call edge %s does not dominate inner edge %s", call.Key, innerBody.Key)
	}
	// Dominance is strict and acyclic: the inner edge must not appear
	// among the call edge's ancestors.
	for _, v := range dom.ancestors(cv) {
		if v == bv {
			t.Error("dominator relation is cyclic")
		}
	}
	if dom.depth[bv] <= dom.depth[cv] {
		t.Errorf("depths inconsistent: inner=%d call=%d", dom.depth[bv], dom.depth[cv])
	}
}
