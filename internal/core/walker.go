package core

import (
	"fmt"

	"phasemark/internal/minivm"
)

// EdgeSink receives call-loop edge traversal events from a Walker. The
// profiler implements it to accumulate edge statistics; the marker
// detector implements it to fire phase boundaries.
//
// Edges are named by dense ids the walker hands out in first-open order
// (0, 1, 2, ...); Walker.Key maps an id back to its stable EdgeKey. A
// sink keeps per-edge state in slices indexed by id and resolves the key
// once per edge, not once per traversal.
type EdgeSink interface {
	// EdgeOpen fires when a traversal of edge id begins, with the dynamic
	// instruction count at that point. A software phase marker placed on
	// the edge signals the beginning of an interval here.
	EdgeOpen(id int32, at uint64)
	// EdgeClose fires when the traversal ends; hier is the hierarchical
	// dynamic instruction count spent on the traversal.
	EdgeClose(id int32, hier uint64)
}

// edgeOpenOnly marks EdgeSinks whose EdgeClose is a no-op (the detector:
// markers fire on edge opens). The walker then skips the close call on
// every pop, which otherwise costs an interface dispatch per edge
// traversal.
type edgeOpenOnly interface{ edgeOpenOnly() }

type walkEntry struct {
	id    int32
	full  bool    // proc-body entry with a head entry beneath it
	node  NodeKey // the context node this entry establishes
	start uint64
	pend  *minivm.Loop // loop-head entry awaiting its first iteration block
}

// walkEdge is one numbered edge: its key, and the id of the edge
// numbered before it at the same site (-1 ends the chain).
type walkEdge struct {
	key  EdgeKey
	next int32
}

// Walker reconstructs call-loop edge traversals from an execution. It is
// the runtime core shared by profiling (graph building) and marker
// detection: it mirrors the machine's call stack and active-loop nesting,
// opening and closing edges of the (virtual) call-loop graph and measuring
// hierarchical instruction counts.
//
// Wire it to a Machine as the Observer, or call its methods from a
// composite observer that runs it alongside other analyses.
type Walker struct {
	prog     *minivm.Program
	loops    *minivm.Loops
	sink     EdgeSink
	tracker  *minivm.LoopTracker
	instrs   uint64
	stack    []walkEntry
	act      []int // activation count per proc ID (recursion detection)
	openOnly bool  // sink ignores EdgeClose (see edgeOpenOnly)

	edges    []walkEdge // edge id -> key and same-site chain
	siteEdge []int32    // site block ID -> last edge id numbered there, or -1
	iterID   []int32    // loop head block ID -> head->body edge id, or -1
}

// NewWalker builds a walker over prog (with the given loop table, which
// must come from the same program) reporting to sink, and opens the
// virtual root's edges into the entry procedure.
func NewWalker(prog *minivm.Program, loops *minivm.Loops, sink EdgeSink) *Walker {
	w := newWalker(prog, loops, sink)
	w.openRoot()
	return w
}

// newWalker builds a walker without opening the root edges, for sinks
// that must hold the walker (to resolve ids) before the first EdgeOpen.
func newWalker(prog *minivm.Program, loops *minivm.Loops, sink EdgeSink) *Walker {
	w := &Walker{
		prog: prog, loops: loops, sink: sink,
		act:      make([]int, len(prog.Procs)),
		siteEdge: make([]int32, prog.NumBlocks),
		iterID:   make([]int32, prog.NumBlocks),
	}
	for i := range w.siteEdge {
		w.siteEdge[i], w.iterID[i] = -1, -1
	}
	_, w.openOnly = sink.(edgeOpenOnly)
	w.tracker = minivm.NewLoopTracker(loops, w)
	return w
}

// openRoot opens the virtual root's call into the entry procedure.
func (w *Walker) openRoot() {
	entry := w.prog.EntryProc()
	w.openProc(NodeKey{Kind: RootKind}, entry, entry.Blocks[0].ID)
}

// Key returns the stable key of the edge the walker numbered id.
func (w *Walker) Key(id int32) EdgeKey { return w.edges[id].key }

// edgeID returns the dense id of edge from->to at site, numbering it on
// its first traversal. Almost every site carries one edge, so the chain
// walk is a single compare.
func (w *Walker) edgeID(from, to NodeKey, site int) int32 {
	for id := w.siteEdge[site]; id >= 0; id = w.edges[id].next {
		if k := &w.edges[id].key; k.From == from && k.To == to {
			return id
		}
	}
	id := int32(len(w.edges))
	w.edges = append(w.edges, walkEdge{key: EdgeKey{From: from, To: to, Site: site}, next: w.siteEdge[site]})
	w.siteEdge[site] = id
	return id
}

// Instructions reports the dynamic instructions observed so far.
func (w *Walker) Instructions() uint64 { return w.instrs }

// ObservedEvents implements minivm.EventMasker: the walker mirrors control
// flow (blocks, calls, returns) and never reads branch outcomes or memory
// references. Embedders (Profiler, Detector) inherit the mask.
func (w *Walker) ObservedEvents() minivm.EventMask {
	return minivm.EvBlock | minivm.EvCall | minivm.EvReturn
}

func (w *Walker) top() NodeKey {
	if len(w.stack) == 0 {
		return NodeKey{Kind: RootKind}
	}
	return w.stack[len(w.stack)-1].node
}

func (w *Walker) push(id int32, node NodeKey, full bool) {
	w.sink.EdgeOpen(id, w.instrs)
	w.stack = append(w.stack, walkEntry{id: id, full: full, node: node, start: w.instrs})
}

func (w *Walker) pop() {
	n := len(w.stack) - 1
	if !w.openOnly {
		w.sink.EdgeClose(w.stack[n].id, w.instrs-w.stack[n].start)
	}
	w.stack = w.stack[:n]
}

func (w *Walker) openProc(ctx NodeKey, callee *minivm.Proc, site int) {
	head := NodeKey{Kind: ProcHead, ID: callee.ID}
	body := NodeKey{Kind: ProcBody, ID: callee.ID}
	w.push(w.edgeID(ctx, head, site), head, false)
	w.push(w.edgeID(head, body, callee.Blocks[0].ID), body, true)
	w.act[callee.ID]++
}

// resolvePending opens the loop-body edge for a loop head waiting for its
// first iteration block. An iteration begins when control moves from the
// head (where the loop condition is evaluated) into the loop proper, so
// the final head pass that exits the loop is not counted as an iteration.
func (w *Walker) resolvePending() {
	top := &w.stack[len(w.stack)-1]
	l := top.pend
	top.pend = nil
	body := NodeKey{Kind: LoopBody, ID: l.Head.ID}
	id := w.iterID[l.Head.ID]
	if id < 0 {
		// A loop's head->body edge is the same edge on every iteration.
		id = w.edgeID(NodeKey{Kind: LoopHead, ID: l.Head.ID}, body, l.Head.ID)
		w.iterID[l.Head.ID] = id
	}
	w.push(id, body, false)
}

// OnBlock implements minivm.Observer.
func (w *Walker) OnBlock(b *minivm.Block) {
	// Loop transitions are processed against the pre-block instruction
	// count so loop spans align exactly with head-block executions.
	if n := len(w.stack); n > 0 {
		if l := w.stack[n-1].pend; l != nil &&
			b.Proc == l.Proc && l.Contains(b.Index) && b != l.Head {
			w.resolvePending()
		}
	}
	w.tracker.OnBlock(b)
	w.instrs += uint64(b.Weight())
}

// OnCall implements minivm.Observer.
func (w *Walker) OnCall(site *minivm.Block, callee *minivm.Proc) {
	// A call from a loop-head block (the condition itself calls) starts
	// the iteration.
	if n := len(w.stack); n > 0 && w.stack[n-1].pend != nil {
		w.resolvePending()
	}
	w.tracker.OnCall(site, callee)
	ctx := w.top()
	if w.act[callee.ID] > 0 {
		// Recursive activation: traverse directly to the body node so the
		// head's incoming edge measures the entire outermost episode (§4.2).
		body := NodeKey{Kind: ProcBody, ID: callee.ID}
		w.push(w.edgeID(ctx, body, site.ID), body, false)
		w.act[callee.ID]++
		return
	}
	w.openProc(ctx, callee, site.ID)
}

// OnReturn implements minivm.Observer.
func (w *Walker) OnReturn(callee *minivm.Proc) {
	// First let the tracker fire exits for loops still active in the
	// returning frame; those entries sit above the proc entries.
	w.tracker.OnReturn(callee)
	if len(w.stack) == 0 {
		return
	}
	full := w.stack[len(w.stack)-1].full
	w.pop() // body edge (or recursive-activation edge)
	if full {
		w.pop() // head edge
	}
	w.act[callee.ID]--
}

// OnBranch implements minivm.Observer.
func (w *Walker) OnBranch(*minivm.Block, bool) {}

// OnMem implements minivm.Observer.
func (w *Walker) OnMem(uint64, bool) {}

// OnLoopEnter implements minivm.LoopEvents.
func (w *Walker) OnLoopEnter(l *minivm.Loop) {
	ctx := w.top()
	head := NodeKey{Kind: LoopHead, ID: l.Head.ID}
	w.push(w.edgeID(ctx, head, l.Head.ID), head, false)
	w.stack[len(w.stack)-1].pend = l // body opens at the first iteration block
}

// OnLoopIterate implements minivm.LoopEvents.
func (w *Walker) OnLoopIterate(l *minivm.Loop) {
	top := &w.stack[len(w.stack)-1]
	if top.pend != nil {
		// Degenerate loop whose head is its own latch (empty body after
		// optimization): no body edge ever opens.
		return
	}
	// Close the finished iteration's body edge; the next iteration's body
	// edge opens at its first post-head block.
	w.pop()
	w.stack[len(w.stack)-1].pend = l
}

// OnLoopExit implements minivm.LoopEvents.
func (w *Walker) OnLoopExit(l *minivm.Loop) {
	top := &w.stack[len(w.stack)-1]
	if top.pend != nil {
		top.pend = nil // exiting head pass was not an iteration
	} else {
		w.pop() // body
	}
	w.pop() // head
}

// Finish closes any traversals still open (none after a balanced run; a
// truncated run closes what remains) and verifies internal consistency.
func (w *Walker) Finish() error {
	for len(w.stack) > 0 {
		w.pop()
	}
	for id, a := range w.act {
		if a != 0 {
			return fmt.Errorf("core: unbalanced activations for proc %d: %d", id, a)
		}
	}
	return nil
}
