package core

import (
	"fmt"
	"testing"

	"phasemark/internal/compile"
	"phasemark/internal/minivm"
	"phasemark/internal/workloads"
)

// oracleSet is the walker-based reference detection of one marker set:
// the marker on each walker edge id (resolved at the edge's first open,
// the first marker on the edge when several share it) and the GroupN
// counting the detector applies. Its firings queue up until the detector
// under test fires the same (marker, at), in order, during the same
// machine event.
type oracleSet struct {
	set    *MarkerSet
	marker []int32 // walker edge id -> marker index, or -1
	seen   []uint64
	want   []Firing // oracle firings the detector has yet to match
	head   int
	n      int // firings matched
	err    error
}

func (s *oracleSet) open(w *Walker, id int32, at uint64) {
	if int(id) >= len(s.marker) { // ids are numbered in first-open order
		i := int32(-1)
		for j, mk := range s.set.Markers {
			if mk.Key == w.Key(id) {
				i = int32(j)
				break
			}
		}
		s.marker = append(s.marker, i)
	}
	i := s.marker[id]
	if i < 0 {
		return
	}
	s.seen[i]++
	if (s.seen[i]-1)%s.set.Markers[i].GroupN == 0 {
		s.want = append(s.want, Firing{Marker: int(i), At: at})
	}
}

// match is the detector's BoundaryFunc: its firing must be the oracle's
// oldest unmatched one.
func (s *oracleSet) match(marker int, at uint64) {
	got := Firing{Marker: marker, At: at}
	switch {
	case s.err != nil:
	case s.head == len(s.want):
		s.err = fmt.Errorf("firing %d: detector fired %+v, the walker nothing", s.n, got)
	case s.want[s.head] != got:
		s.err = fmt.Errorf("firing %d: detector fired %+v, the walker %+v", s.n, got, s.want[s.head])
	default:
		s.head++
		s.n++
		if s.head == len(s.want) {
			s.want, s.head = s.want[:0], 0
		}
	}
}

// finish reports the first divergence, or a walker firing the detector
// never matched.
func (s *oracleSet) finish() error {
	if s.err == nil && s.head < len(s.want) {
		s.err = fmt.Errorf("after %d firings: the walker fired %+v, the detector nothing", s.n, s.want[s.head])
	}
	return s.err
}

// walkerOracle is an EdgeSink that fires on marker edges: marker
// detection run through the profiler's Walker, which tracks the call-loop
// context dynamically instead of reading it from anchor tables.
type walkerOracle struct {
	w     *Walker
	sets  []*oracleSet
	early []Firing // opens (id in Marker) before w is known: the root's
}

func (o *walkerOracle) EdgeOpen(id int32, at uint64) {
	if o.w == nil {
		o.early = append(o.early, Firing{Marker: int(id), At: at})
		return
	}
	for _, s := range o.sets {
		s.open(o.w, id, at)
	}
}

func (o *walkerOracle) EdgeClose(int32, uint64) {}

// detectorCheck runs the walker oracle and one Detector per set on the
// same execution: each event reaches the walker first, so its firings
// are queued when the detectors fire theirs.
type detectorCheck struct {
	w    *Walker
	dets []*Detector
}

func newDetectorCheck(t *testing.T, prog *minivm.Program, sets []*MarkerSet) (*detectorCheck, []*oracleSet) {
	t.Helper()
	loops := minivm.FindLoops(prog)
	o := &walkerOracle{}
	for _, set := range sets {
		o.sets = append(o.sets, &oracleSet{set: set, seen: make([]uint64, len(set.Markers))})
	}
	c := &detectorCheck{w: NewWalker(prog, loops, o)}
	o.w = c.w
	for _, f := range o.early {
		o.EdgeOpen(int32(f.Marker), f.At)
	}
	for _, s := range o.sets {
		d, err := NewDetector(prog, loops, s.set, s.match)
		if err != nil {
			t.Fatal(err)
		}
		c.dets = append(c.dets, d)
	}
	return c, o.sets
}

func (c *detectorCheck) ObservedEvents() minivm.EventMask {
	return minivm.EvBlock | minivm.EvCall | minivm.EvReturn
}

func (c *detectorCheck) OnBlock(b *minivm.Block) {
	c.w.OnBlock(b)
	for _, d := range c.dets {
		d.OnBlock(b)
	}
}

func (c *detectorCheck) OnCall(site *minivm.Block, callee *minivm.Proc) {
	c.w.OnCall(site, callee)
	for _, d := range c.dets {
		d.OnCall(site, callee)
	}
}

func (c *detectorCheck) OnReturn(callee *minivm.Proc) {
	c.w.OnReturn(callee)
	for _, d := range c.dets {
		d.OnReturn(callee)
	}
}

func (c *detectorCheck) OnBranch(*minivm.Block, bool) {}
func (c *detectorCheck) OnMem(uint64, bool)           {}

// everyEdge is a marker on every edge of g, each firing on every
// traversal.
func everyEdge(g *Graph) *MarkerSet {
	set := &MarkerSet{}
	for _, e := range g.Edges {
		set.Markers = append(set.Markers, Marker{Key: e.Key, GroupN: 1})
	}
	return set
}

// TestDetectorMatchesWalker pins the anchor-table Detector to the
// walker-based oracle: on every workload's train input, at -O0, optimized
// and on the stack backend, each marker set fires the same (marker, at)
// sequence under both. The sets are a marker on every profiled edge and
// the suite's no-limit, limit and minimized limit selections.
func TestDetectorMatchesWalker(t *testing.T) {
	builds := []struct {
		name string
		opts compile.Options
	}{
		{"O0", compile.Options{}},
		{"opt", compile.Options{Optimize: true}},
		{"stack", compile.Options{Stack: true}},
	}
	for _, w := range workloads.All() {
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			for _, b := range builds {
				prog, err := compile.CompileSource(w.Source, b.opts)
				if err != nil {
					t.Fatal(err)
				}
				g, err := ProfileRunWorkers(prog, 1, w.Train...)
				if err != nil {
					t.Fatal(err)
				}
				sets := []*MarkerSet{
					everyEdge(g),
					SelectMarkers(g, SelectOptions{ILower: 100_000}),
					SelectMarkers(g, SelectOptions{ILower: 100_000, MaxLimit: 2_000_000}),
					SelectMarkers(g, SelectOptions{ILower: 100_000, MaxLimit: 2_000_000, Minimize: true}),
				}
				c, oracles := newDetectorCheck(t, prog, sets)
				if _, err := minivm.NewMachine(prog, c).Run(w.Train...); err != nil {
					t.Fatal(err)
				}
				for i, o := range oracles {
					if err := o.finish(); err != nil {
						t.Errorf("%s set %d (%d markers): %v", b.name, i, len(sets[i].Markers), err)
					}
					if i == 0 && o.n == 0 {
						t.Errorf("%s: nothing fired on the every-edge set", b.name)
					}
				}
			}
		})
	}
}

// cornerCases exercises the anchors no workload reaches: a loop head that
// is a call (main b1: the call opens the iteration), a callee returning
// from a loop head with its iteration pending (f b1), a head that is its
// own latch (spin b1: no iteration ever opens), and recursion (rec).
const cornerCases = `program entry=main globals=0

proc f args=1 regs=2 line=1 {
b0: line=1 col=1
  jump b1
b1: line=1 col=1
  ret r0
b2: line=1 col=1
  jump b1
}

proc spin args=1 regs=3 line=2 {
b0: line=2 col=1
  const r1, 0
  jump b1
b1: line=2 col=1
  addi r1, r1, 1
  br r1 < r0, b1, b2
b2: line=2 col=1
  ret r1
}

proc rec args=1 regs=3 line=3 {
b0: line=3 col=1
  const r1, 0
  br r0 > r1, b1, b2
b1: line=3 col=1
  addi r2, r0, -1
  call r1, rec(r2), b2 line=3 col=2
b2: line=3 col=1
  ret r1
}

proc main args=1 regs=5 line=4 {
b0: line=4 col=1
  const r1, 0
  jump b1
b1: line=4 col=1
  call r2, f(r1), b2 line=4 col=2
b2: line=4 col=1
  call r3, spin(r0), b3 line=4 col=3
b3: line=4 col=1
  call r4, rec(r0), b4 line=4 col=4
b4: line=4 col=1
  addi r1, r1, 1
  br r1 < r0, b1, b5
b5: line=4 col=1
  ret r1
}
`

// TestDetectorCornerCases compares the detector with the walker oracle on
// cornerCases, with a marker on every profiled edge and on the head->body
// edge of every loop, including those the walker never opens.
func TestDetectorCornerCases(t *testing.T) {
	prog, err := minivm.ParseAsm(cornerCases)
	if err != nil {
		t.Fatal(err)
	}
	g, err := ProfileRunWorkers(prog, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	set := everyEdge(g)
	for _, l := range minivm.FindLoops(prog).All {
		h := l.Head.ID
		set.Markers = append(set.Markers, Marker{Key: EdgeKey{From: NodeKey{Kind: LoopHead, ID: h}, To: NodeKey{Kind: LoopBody, ID: h}, Site: h}, GroupN: 1})
	}
	c, oracles := newDetectorCheck(t, prog, []*MarkerSet{set})
	if _, err := minivm.NewMachine(prog, c).Run(3); err != nil {
		t.Fatal(err)
	}
	if err := oracles[0].finish(); err != nil {
		t.Fatal(err)
	}
	if oracles[0].n == 0 {
		t.Fatal("nothing fired")
	}
}
