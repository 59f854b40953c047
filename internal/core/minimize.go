package core

import (
	"math"
	"sort"

	"phasemark/internal/obs"
)

// Placement-minimization metrics: how much of the selected marker
// population the pruning passes remove, and how much per-site runtime cost
// (edge traversals the detector or instrumented binary pays for) survives.
var (
	obsMinRuns         = obs.NewCounter("core.minimize.runs")
	obsMinKept         = obs.NewCounter("core.minimize.kept")
	obsMinPrunedDom    = obs.NewCounter("core.minimize.pruned_dominated")
	obsMinPrunedCoFire = obs.NewCounter("core.minimize.pruned_cofire")
	obsMinPrunedCover  = obs.NewCounter("core.minimize.pruned_cover")
	obsMinCostFull     = obs.NewCounter("core.minimize.cost_full")
	obsMinCostKept     = obs.NewCounter("core.minimize.cost_kept")
)

// MinimizeReport summarizes one MinimizeMarkers run. Cost is the per-site
// runtime cost model (SiteCost): the sum of profile traversal counts over
// a set's marker sites — every traversal of a marked edge is one detector
// site lookup (or one executed mark instruction in the instrumented
// binary), whether or not it fires.
type MinimizeReport struct {
	Full            int // markers in the input set
	Kept            int // markers surviving all passes
	PrunedDominated int // removed by the dominance pass
	PrunedCoFire    int // removed by the co-firing pass
	PrunedCover     int // removed by the greedy cover fallback
	FullCost        uint64
	KeptCost        uint64
	EffUpper        uint64 // resolved stretch bound
}

// effUpper is the longest uncut stretch a pruning step may provably
// introduce, in instructions: the selection's MaxLimit (§5.2 iupper), or
// for a set selected without a limit ILower × CovScale — the point where
// the selection's CoV threshold saturates, i.e. the scale the selection
// itself considers "far above ILower".
func effUpper(set *MarkerSet) uint64 {
	if set.Opts.MaxLimit > 0 {
		return set.Opts.MaxLimit
	}
	return uint64(float64(set.Opts.ILower) * set.Opts.covScale())
}

// SiteCost prices a marker set on a profiled graph: the sum of the
// profile traversal counts of its marker edges (an edge no longer in the
// graph costs nothing).
func SiteCost(g *Graph, set *MarkerSet) uint64 {
	var c uint64
	for _, m := range set.Markers {
		if e := g.EdgeByKey(m.Key); e != nil {
			c += e.Count()
		}
	}
	return c
}

// Prune reasons recorded per marker while the passes run.
const (
	keptMarker = iota
	prunedDominated
	prunedCoFire
	prunedCovered
)

// MinimizeMarkers computes a minimum-cost placement for a selected marker
// set: a subset of markers whose firings still tile execution within the
// selection's interval bounds, at a smaller per-site runtime cost (markers
// weighted by traversal count). Three pruning passes run over the
// call-loop graph's dominance/containment structure:
//
//  1. Dominance: marker B is redundant when a kept marker A dominates it
//     in the call-loop graph (every traversal of B's edge is nested inside
//     a traversal of A's edge — a caller edge above a callee edge, a loop
//     entry above its body) and A's own firing gaps fit the stretch bound
//     (GroupN × max hierarchical count ≤ effUpper): dropping B leaves no
//     uncut stretch longer than one A gap plus one full-set interval.
//  2. Co-firing: a marker on an edge into a head node fires at the same
//     instant as the head→body marker beneath it (the walker opens both
//     edges back to back at the entry instruction), so when the body
//     marker is kept with GroupN == 1 the entry marker's cuts are
//     duplicates and it is dropped regardless of bounds.
//  3. Greedy cover (fallback): where dominance could not prove
//     redundancy because the dominating marker itself exceeds the bound,
//     the dominator is dropped anyway when its kept marker descendants
//     blanket its span in expectation — Σ fires × min(GroupN·avg,
//     effUpper) over the descendants covers the dominator's total
//     profiled mass. Candidates drop most-expensive-first, re-validating
//     after every drop.
//
// Kept markers fire identically with or without their pruned peers
// (detection is per-site), so the minimized cut sequence is exactly the
// full sequence restricted to the kept markers — the property
// check.Placement pins. The result preserves marker order, thresholds, and
// Opts; the input set is not modified.
func MinimizeMarkers(g *Graph, set *MarkerSet) (*MarkerSet, MinimizeReport) {
	sp := obs.StartSpan("core.minimize_markers", "")
	defer sp.End()
	obsMinRuns.Inc()

	rep := MinimizeReport{Full: len(set.Markers), EffUpper: effUpper(set), FullCost: SiteCost(g, set)}
	out := &MarkerSet{Opts: set.Opts, CovBase: set.CovBase, CovSlack: set.CovSlack}
	if len(set.Markers) == 0 {
		return out, rep
	}

	dom := newDominators(g)
	n := len(set.Markers)
	verts := make([]int, n)  // augmented-graph vertex per marker, -1 if gone
	pruned := make([]int, n) // keptMarker or a prune reason
	markerAt := make(map[int]int, n)
	for i := range set.Markers {
		verts[i] = dom.edgeVertex(set.Markers[i].Key)
		if verts[i] >= 0 {
			markerAt[verts[i]] = i
		}
	}

	// fits reports whether marker i's firing gaps bound the stretches they
	// are responsible for: GroupN consecutive traversals never exceed the
	// effective upper bound.
	fits := func(i int) bool {
		e := g.EdgeByKey(set.Markers[i].Key)
		if e == nil {
			return false
		}
		return float64(set.Markers[i].GroupN)*e.Max() <= float64(rep.EffUpper)
	}

	// Pass 1 — dominance. Order markers by dominator-tree depth so
	// dominators are decided before the markers they dominate, then prune
	// every marker with a kept, bound-fitting marker strictly above it.
	order := make([]int, 0, n)
	for i := range set.Markers {
		if verts[i] >= 0 && dom.depth[verts[i]] >= 0 {
			order = append(order, i)
		}
	}
	sort.SliceStable(order, func(a, b int) bool {
		return dom.depth[verts[order[a]]] < dom.depth[verts[order[b]]]
	})
	for _, i := range order {
		for _, v := range dom.ancestors(verts[i]) {
			if a, ok := markerAt[v]; ok && pruned[a] == keptMarker && fits(a) {
				pruned[i] = prunedDominated
				break
			}
		}
	}

	// Pass 2 — co-firing. An entry marker (edge into a proc or loop head)
	// duplicates the cuts of the head→body marker directly beneath it when
	// that marker is kept and ungrouped.
	bodyKept := map[NodeKey]bool{}
	for i, m := range set.Markers {
		if pruned[i] != keptMarker || m.GroupN != 1 {
			continue
		}
		from := m.Key.From
		if (from.Kind == ProcHead || from.Kind == LoopHead) && m.Key.To.Kind == bodyKind(from.Kind) {
			bodyKept[from] = true
		}
	}
	for i, m := range set.Markers {
		if pruned[i] != keptMarker {
			continue
		}
		to := m.Key.To
		if (to.Kind == ProcHead || to.Kind == LoopHead) && bodyKept[to] {
			pruned[i] = prunedCoFire
		}
	}

	// Pass 3 — greedy expected-coverage fallback. A kept marker whose own
	// gaps exceed the bound (pass 1 could not use it as a dominator) is
	// dropped when its kept marker descendants cover its profiled mass in
	// expectation. Most expensive first; every drop re-validates the
	// remaining candidates, and the last marker is never dropped.
	minimizeCover(g, set, dom, verts, pruned, markerAt, fits, rep.EffUpper)

	for i, m := range set.Markers {
		switch pruned[i] {
		case keptMarker:
			out.Markers = append(out.Markers, m)
		case prunedDominated:
			rep.PrunedDominated++
		case prunedCoFire:
			rep.PrunedCoFire++
		case prunedCovered:
			rep.PrunedCover++
		}
	}
	rep.Kept = len(out.Markers)
	rep.KeptCost = SiteCost(g, out)
	obsMinKept.Add(uint64(rep.Kept))
	obsMinPrunedDom.Add(uint64(rep.PrunedDominated))
	obsMinPrunedCoFire.Add(uint64(rep.PrunedCoFire))
	obsMinPrunedCover.Add(uint64(rep.PrunedCover))
	obsMinCostFull.Add(rep.FullCost)
	obsMinCostKept.Add(rep.KeptCost)
	return out, rep
}

// bodyKind maps a head node kind to its body kind.
func bodyKind(k NodeKind) NodeKind {
	if k == ProcHead {
		return ProcBody
	}
	return LoopBody
}

// minimizeCover runs the greedy expected-coverage pass (see
// MinimizeMarkers, pass 3) in place over pruned.
func minimizeCover(g *Graph, set *MarkerSet, dom *dominators, verts, pruned []int,
	markerAt map[int]int, fits func(int) bool, effUpper uint64) {
	type stat struct {
		idx   int
		cost  uint64  // site traversals
		mass  float64 // total profiled instructions under the marker's traversals
		cover float64 // expected cut mass the marker's firings contribute
	}
	stats := make([]stat, 0, len(set.Markers))
	byIdx := make(map[int]int, len(set.Markers)) // marker index -> stats index
	for i := range set.Markers {
		e := g.EdgeByKey(set.Markers[i].Key)
		if e == nil || verts[i] < 0 {
			continue
		}
		gn := float64(set.Markers[i].GroupN)
		fires := float64(e.Count()) / gn
		span := gn * e.Avg()
		if up := float64(effUpper); span > up {
			span = up
		}
		byIdx[i] = len(stats)
		stats = append(stats, stat{
			idx:   i,
			cost:  e.Count(),
			mass:  float64(e.Count()) * e.Avg(),
			cover: fires * span,
		})
	}
	// descendants[i] lists the markers strictly dominated by marker i.
	descendants := make(map[int][]int, len(stats))
	for j := range stats {
		i := stats[j].idx
		for _, v := range dom.ancestors(verts[i]) {
			if a, ok := markerAt[v]; ok {
				descendants[a] = append(descendants[a], i)
			}
		}
	}
	keptCount := 0
	for i := range set.Markers {
		if pruned[i] == keptMarker {
			keptCount++
		}
	}
	for keptCount > 1 {
		// Candidates: kept markers that exceed the bound themselves but
		// whose kept descendants cover their mass in expectation.
		best := -1
		for j := range stats {
			i := stats[j].idx
			if pruned[i] != keptMarker || fits(i) {
				continue
			}
			var covered float64
			any := false
			for _, d := range descendants[i] {
				if pruned[d] == keptMarker {
					covered += stats[byIdx[d]].cover
					any = true
				}
			}
			if !any || covered < stats[j].mass {
				continue
			}
			// Most expensive first; key order breaks ties deterministically.
			if best < 0 || stats[j].cost > stats[best].cost ||
				(stats[j].cost == stats[best].cost &&
					set.Markers[i].Key.String() < set.Markers[stats[best].idx].Key.String()) {
				best = j
			}
		}
		if best < 0 {
			return
		}
		pruned[stats[best].idx] = prunedCovered
		keptCount--
	}
}

// dominators is the dominator tree of the augmented call-loop graph: every
// node and every edge of the graph is a vertex (edges are split so that
// edge-level dominance — "every path from the root to X traverses edge E"
// — falls out of the standard node algorithm). Dominance in this static
// graph implies dynamic containment for the walker's traversal discipline:
// an edge can only be open while every edge dominating it is open.
type dominators struct {
	root  int
	idom  []int // immediate dominator per vertex; idom[root] == root, -1 unreachable
	depth []int // dominator-tree depth; 0 at the root, -1 unreachable
	edges map[EdgeKey]int
}

// edgeVertex returns the augmented-graph vertex of an edge, or -1 when the
// edge is not in the graph.
func (d *dominators) edgeVertex(k EdgeKey) int {
	if v, ok := d.edges[k]; ok {
		return v
	}
	return -1
}

// ancestors returns v's strict dominators, nearest first, excluding the
// root. Empty for unreachable vertices.
func (d *dominators) ancestors(v int) []int {
	var out []int
	if v < 0 || d.idom[v] < 0 {
		return out
	}
	for v = d.idom[v]; v != d.root; v = d.idom[v] {
		if v < 0 {
			break
		}
		out = append(out, v)
		if d.idom[v] == v {
			break
		}
	}
	return out
}

// newDominators computes immediate dominators over the augmented graph
// with the iterative Cooper–Harvey–Kennedy algorithm. The call-loop graph
// is small (hundreds of vertices) and may be cyclic (recursion); the
// iteration converges in a handful of passes over reverse postorder.
func newDominators(g *Graph) *dominators {
	nNodes := len(g.Nodes)
	nv := nNodes + len(g.Edges)
	nodeIdx := make(map[*Node]int, nNodes)
	for i, n := range g.Nodes {
		nodeIdx[n] = i
	}
	d := &dominators{edges: make(map[EdgeKey]int, len(g.Edges))}
	succ := make([][]int, nv)
	pred := make([][]int, nv)
	for i, e := range g.Edges {
		v := nNodes + i
		d.edges[e.Key] = v
		f, t := nodeIdx[e.From], nodeIdx[e.To]
		succ[f] = append(succ[f], v)
		succ[v] = append(succ[v], t)
		pred[v] = append(pred[v], f)
		pred[t] = append(pred[t], v)
	}
	d.root = nodeIdx[g.Root]

	// Reverse postorder from the root (iterative DFS).
	post := make([]int, 0, nv)
	state := make([]uint8, nv) // 0 unvisited, 1 on stack, 2 done
	type frame struct{ v, next int }
	stack := []frame{{d.root, 0}}
	state[d.root] = 1
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next < len(succ[f.v]) {
			w := succ[f.v][f.next]
			f.next++
			if state[w] == 0 {
				state[w] = 1
				stack = append(stack, frame{w, 0})
			}
			continue
		}
		state[f.v] = 2
		post = append(post, f.v)
		stack = stack[:len(stack)-1]
	}
	rpo := make([]int, 0, len(post))
	for i := len(post) - 1; i >= 0; i-- {
		rpo = append(rpo, post[i])
	}
	rpoNum := make([]int, nv)
	for i := range rpoNum {
		rpoNum[i] = math.MaxInt
	}
	for i, v := range rpo {
		rpoNum[v] = i
	}

	idom := make([]int, nv)
	for i := range idom {
		idom[i] = -1
	}
	idom[d.root] = d.root
	intersect := func(a, b int) int {
		for a != b {
			for rpoNum[a] > rpoNum[b] {
				a = idom[a]
			}
			for rpoNum[b] > rpoNum[a] {
				b = idom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for _, v := range rpo {
			if v == d.root {
				continue
			}
			newIdom := -1
			for _, p := range pred[v] {
				if idom[p] < 0 {
					continue
				}
				if newIdom < 0 {
					newIdom = p
				} else {
					newIdom = intersect(newIdom, p)
				}
			}
			if newIdom >= 0 && idom[v] != newIdom {
				idom[v] = newIdom
				changed = true
			}
		}
	}
	d.idom = idom

	d.depth = make([]int, nv)
	for i := range d.depth {
		d.depth[i] = -1
	}
	d.depth[d.root] = 0
	for _, v := range rpo {
		if v == d.root || idom[v] < 0 {
			continue
		}
		if pd := d.depth[idom[v]]; pd >= 0 {
			d.depth[v] = pd + 1
		}
	}
	return d
}
