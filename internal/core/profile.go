package core

import (
	"fmt"
	"runtime"

	"phasemark/internal/minivm"
	"phasemark/internal/obs"
)

// Profiler accumulates a call-loop graph from an execution. Use it as the
// machine's Observer (or call its methods from a composite observer), then
// read Graph.
type Profiler struct {
	*Walker
	g *Graph
}

// profileSink maps the walker's edge ids to graph edges. An edge is
// created at its first close, through Graph.ensureEdge: the creation
// order of Graph.Nodes, Graph.Edges and every Node's In and Out is the
// order of first closes, which EstimateDepths and selection's tie-breaks
// observe, and each Edge sees its Welford.Add calls in traversal order.
// TestProfileGraphGolden pins both, float bits included.
type profileSink struct {
	p     *Profiler
	edges []*Edge // walker edge id -> graph edge, nil until its first close
}

func (s *profileSink) EdgeOpen(int32, uint64) {}

func (s *profileSink) EdgeClose(id int32, hier uint64) {
	if int(id) >= len(s.edges) {
		s.edges = append(s.edges, make([]*Edge, int(id)+1-len(s.edges))...)
	}
	e := s.edges[id]
	if e == nil {
		e = s.p.g.ensureEdge(s.p.Key(id))
		s.edges[id] = e
	}
	e.Hier.Add(float64(hier))
}

// NewProfiler builds a profiler (and its graph) for prog.
func NewProfiler(prog *minivm.Program) *Profiler {
	g := NewGraph(prog)
	p := &Profiler{g: g}
	p.Walker = NewWalker(prog, g.Loops, &profileSink{p: p})
	return p
}

// Graph returns the call-loop graph built so far. Call Walker.Finish first
// to flush open traversals after a truncated run.
func (p *Profiler) Graph() *Graph { return p.g }

// resolveNode materializes the node for a stable key.
func (g *Graph) resolveNode(k NodeKey) *Node {
	if n, ok := g.nodes[k]; ok {
		return n
	}
	switch k.Kind {
	case RootKind:
		return g.Root
	case ProcHead:
		return g.ProcHeadNode(g.Prog.Procs[k.ID])
	case ProcBody:
		return g.ProcBodyNode(g.Prog.Procs[k.ID])
	default:
		head := g.blockByID(k.ID)
		l := g.Loops.LoopAtHead(head)
		if l == nil {
			panic(fmt.Sprintf("core: no loop headed by block %d", k.ID))
		}
		if k.Kind == LoopHead {
			return g.LoopHeadNode(l)
		}
		return g.LoopBodyNode(l)
	}
}

func (g *Graph) ensureEdge(k EdgeKey) *Edge {
	if e, ok := g.edges[k]; ok {
		return e
	}
	return g.edge(g.resolveNode(k.From), g.resolveNode(k.To), k.Site)
}

func (g *Graph) blockByID(id int) *minivm.Block {
	if id < 0 || id >= len(g.blockIdx) {
		return nil
	}
	return g.blockIdx[id]
}

var (
	obsProfiles   = obs.NewCounter("core.profile.runs")
	obsGraphNodes = obs.NewCounter("core.graph.nodes")
	obsGraphEdges = obs.NewCounter("core.graph.edges")
)

// ProfileRun executes prog on args with a fresh profiler and returns the
// resulting call-loop graph. This is the "analyze the binary with ATOM"
// step of the paper. It may use the whole machine: ProfileRunWorkers
// with workers 0.
func ProfileRun(prog *minivm.Program, args ...int64) (*Graph, error) {
	return ProfileRunWorkers(prog, 0, args...)
}

// ProfileRunWorkers is ProfileRun on at most workers goroutines, counted
// as trace.Config.Workers counts them (minivm.RunWorkers): 0 means
// runtime.GOMAXPROCS(0), 1 the profiler observing the machine directly,
// and 2 or more the record/replay split: the interpreter on a producer
// goroutine, the profiler on the caller's, which replays the serial
// machine's events in order and so builds the same graph bit for bit.
// The split spends more CPU than the serial machine and gains only with
// a second core free, so a caller that already runs several profiles at
// once passes each its par.Share. Negative is an error.
func ProfileRunWorkers(prog *minivm.Program, workers int, args ...int64) (*Graph, error) {
	if workers < 0 {
		return nil, fmt.Errorf("core: negative workers (%d)", workers)
	}
	if err := prog.Check(); err != nil {
		return nil, fmt.Errorf("core: profile: %w", err)
	}
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sp := obs.StartSpan("core.profile_run", "")
	defer sp.End()
	p := NewProfiler(prog)
	if _, err := minivm.RunWorkers(prog, p, workers, nil, args...); err != nil {
		return nil, fmt.Errorf("core: profiling run failed: %w", err)
	}
	if err := p.Finish(); err != nil {
		return nil, err
	}
	g := p.Graph()
	obsProfiles.Inc()
	obsGraphNodes.Add(uint64(len(g.Nodes)))
	obsGraphEdges.Add(uint64(len(g.Edges)))
	return g, nil
}
