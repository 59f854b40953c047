package core

import (
	"testing"
	"testing/quick"

	"phasemark/internal/compile"
	"phasemark/internal/minivm"
	"phasemark/internal/stats"
)

// balanceSink checks the fundamental walker invariants: every open has a
// matching close (LIFO), hierarchical counts are non-negative, and nested
// traversals are contained within their parents. Ids must be numbered
// densely in first-open order.
type balanceSink struct {
	t     *testing.T
	stack []struct {
		id int32
		at uint64
	}
	opens, closes int
	maxID         int32
}

func (s *balanceSink) EdgeOpen(id int32, at uint64) {
	if n := len(s.stack); n > 0 && at < s.stack[n-1].at {
		s.t.Fatalf("open at %d before parent open at %d", at, s.stack[n-1].at)
	}
	if id < 0 || id > s.maxID+1 || (s.opens == 0 && id != 0) {
		s.t.Fatalf("edge id %d opened with ids 0..%d numbered so far", id, s.maxID)
	}
	s.maxID = max(s.maxID, id)
	s.stack = append(s.stack, struct {
		id int32
		at uint64
	}{id, at})
	s.opens++
}

func (s *balanceSink) EdgeClose(id int32, hier uint64) {
	if len(s.stack) == 0 {
		s.t.Fatal("close without open")
	}
	top := s.stack[len(s.stack)-1]
	if top.id != id {
		s.t.Fatalf("non-LIFO close: %d, open stack top %d", id, top.id)
	}
	s.stack = s.stack[:len(s.stack)-1]
	s.closes++
}

// checkEdgeIDs asserts the walker's numbering is a bijection: no two ids
// share a key, and every id's key resolves back to that id.
func checkEdgeIDs(t *testing.T, w *Walker) {
	t.Helper()
	seen := make(map[EdgeKey]int32, len(w.edges))
	for id := int32(0); int(id) < len(w.edges); id++ {
		k := w.Key(id)
		if prev, dup := seen[k]; dup {
			t.Fatalf("edge %v has ids %d and %d", k, prev, id)
		}
		seen[k] = id
		if back := w.edgeID(k.From, k.To, k.Site); back != id {
			t.Fatalf("edge %v: id %d resolves to %d", k, id, back)
		}
	}
}

// genProgram builds a random but structurally valid program: a few procs
// with loops, nested loops, calls, and data-dependent branches.
func genProgram(t *testing.T, seed uint64) (*minivm.Program, []int64) {
	r := stats.NewRNG(seed)
	src := `
var g;
proc leaf(x) {
	var s = x;
	for (var i = 0; i < (x & 15) + 1; i = i + 1) { s = s + i; }
	return s;
}
proc mid(x, d) {
	var s = 0;
	for (var i = 0; i < (x & 7) + 1; i = i + 1) {
		if (i % 2 == 0) { s = s + leaf(i + x); }
		else {
			while (s > x) { s = s - x - 1; }
		}
	}
	if (d > 0) { s = s + mid(x / 2, d - 1); }
	return s;
}
proc main(n, d) {
	var s = 0;
	for (var r = 0; r < n; r = r + 1) {
		s = s + mid(r * 13 + 7, d);
		g = g + s;
	}
	return s;
}
`
	prog, err := mustCompileSrc(src, seed%2 == 0)
	if err != nil {
		t.Fatal(err)
	}
	return prog, []int64{int64(r.Intn(20) + 1), int64(r.Intn(3))}
}

func TestWalkerInvariantsOnRandomPrograms(t *testing.T) {
	f := func(seed uint64) bool {
		prog, args := genProgram(t, seed)
		sink := &balanceSink{t: t}
		w := NewWalker(prog, minivm.FindLoops(prog), sink)
		m := minivm.NewMachine(prog, w)
		if _, err := m.Run(args...); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := w.Finish(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if sink.opens != sink.closes {
			t.Fatalf("seed %d: %d opens, %d closes", seed, sink.opens, sink.closes)
		}
		if len(sink.stack) != 0 {
			t.Fatalf("seed %d: %d traversals left open", seed, len(sink.stack))
		}
		if int(sink.maxID)+1 != len(w.edges) {
			t.Fatalf("seed %d: sink saw ids 0..%d, walker numbered %d edges", seed, sink.maxID, len(w.edges))
		}
		checkEdgeIDs(t, w)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// mutualRecursion has one call site (g's call to f) that reaches f both
// as an outermost activation (main -> g -> f) and as a recursive one
// (f -> g -> f): two edges with the same source node and site.
const mutualRecursion = `
proc f(n) {
	if (n > 0) { return g(n - 1) + 1; }
	return 0;
}
proc g(n) {
	return f(n) + 1;
}
proc main(n) {
	return g(n) + f(n);
}
`

// TestEdgeIDsSeparateRecursiveActivations pins that the walker's edge
// numbering tells edges apart by target too, not just by source and
// site: the recursive activation is its own edge, with its own id and
// statistics.
func TestEdgeIDsSeparateRecursiveActivations(t *testing.T) {
	prog := mustCompile(t, mutualRecursion, false)
	sink := &balanceSink{t: t}
	w := NewWalker(prog, minivm.FindLoops(prog), sink)
	if _, err := minivm.NewMachine(prog, w).Run(3); err != nil {
		t.Fatal(err)
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	checkEdgeIDs(t, w)

	g := mustProfile(t, prog, 3)
	f, gp := prog.Proc("f"), prog.Proc("g")
	from := NodeKey{Kind: ProcBody, ID: gp.ID}
	var outer *Edge
	for _, e := range g.Edges {
		if e.Key.From == from && e.Key.To == (NodeKey{Kind: ProcHead, ID: f.ID}) {
			outer = e
		}
	}
	if outer == nil {
		t.Fatal("no outermost call edge g -> f")
	}
	rec := g.EdgeByKey(EdgeKey{From: from, To: NodeKey{Kind: ProcBody, ID: f.ID}, Site: outer.Key.Site})
	if rec == nil || rec.Count() == 0 {
		t.Fatalf("recursive activation at site %d folded into %v", outer.Key.Site, outer.Key)
	}
}

// Property: profiling the same program twice yields identical graphs, and
// the sum over a node's incoming edge counts is input-deterministic.
func TestProfilingDeterministic(t *testing.T) {
	prog, args := genProgram(t, 7)
	g1 := mustProfile(t, prog, args...)
	g2 := mustProfile(t, prog, args...)
	if len(g1.Edges) != len(g2.Edges) {
		t.Fatalf("edge counts differ: %d vs %d", len(g1.Edges), len(g2.Edges))
	}
	for _, e1 := range g1.Edges {
		e2 := g2.EdgeByKey(e1.Key)
		if e2 == nil {
			t.Fatalf("edge %v missing from second profile", e1.Key)
		}
		if e1.Count() != e2.Count() || e1.Avg() != e2.Avg() || e1.Max() != e2.Max() {
			t.Fatalf("edge %v stats differ", e1.Key)
		}
	}
}

// Property: hierarchical count of a parent traversal >= sum of any child's
// contribution — specifically the root edge equals total instructions and
// every edge's total is bounded by it.
func TestHierarchicalCountsBounded(t *testing.T) {
	prog, args := genProgram(t, 13)
	p := NewProfiler(prog)
	m := minivm.NewMachine(prog, p)
	if _, err := m.Run(args...); err != nil {
		t.Fatal(err)
	}
	if err := p.Finish(); err != nil {
		t.Fatal(err)
	}
	total := float64(m.Instructions())
	for _, e := range p.Graph().Edges {
		if e.Max() > total {
			t.Fatalf("edge %v max %v exceeds total %v", e.Key, e.Max(), total)
		}
	}
}

func mustCompileSrc(src string, opt bool) (*minivm.Program, error) {
	return compile.CompileSource(src, compile.Options{Optimize: opt})
}
