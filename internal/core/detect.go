package core

import (
	"fmt"

	"phasemark/internal/minivm"
)

// BoundaryFunc is called when a phase marker fires: marker is the index in
// the MarkerSet, at is the dynamic instruction count at the firing point
// (the beginning of the new interval).
type BoundaryFunc func(marker int, at uint64)

// Detector watches an execution for phase-marker firings. Detection is
// purely structural: it needs no hardware support and no per-interval
// metrics — this is the paper's "insert instrumentation at the markers"
// runtime, applied to the same or a different input than the one
// profiled. Wire it to the machine as the Observer.
//
// Every marker is anchored at a static instruction (§5.3): a call site,
// a loop head entered from outside its region, a head's step into its
// loop body, or a procedure's entry. On a program whose loops pass
// minivm.Loops.Check, the call-loop context of each anchor is static too
// (the body of the innermost loop containing it, else its procedure's
// body), so NewDetector compiles the marker set into tables keyed by
// anchor once and the run does no call-loop bookkeeping. It keeps the
// instruction count, each active frame's previous block (and whether the
// current frame's heads a loop whose iteration marker has yet to open),
// and per-procedure activation counts: a call into an active procedure
// traverses the edge into its body, as the profiler's Walker does. The
// firings are the Walker's edge opens on marker edges, instant for
// instant.
type Detector struct {
	set     *MarkerSet
	instrs  uint64
	prev    *minivm.Block   // the current frame's last block; nil before its first
	pending bool            // prev heads a loop whose iteration marker has not opened
	callers []*minivm.Block // each calling frame's last block, its call site
	act     []int32         // activations per proc ID

	// Anchor tables: the index of the marker that fires there, or -1.
	anchors []anchor // by block ID
	body    []int32  // proc ID -> its head->body marker
	root    int32    // the virtual root's call into the entry procedure

	seen   []uint64
	fired  []uint64
	onFire BoundaryFunc
}

// anchor holds the markers anchored at one block.
type anchor struct {
	loop        *minivm.Loop // the loop the block heads, or nil
	entry, iter int32        // a head's: entering its loop, and its head->body edge
	call, rcall int32        // a call site's: into the callee's head, and recursively into its body
}

// NewDetector builds a detector for set over prog, firing the root's call
// into the entry procedure at once. The loop table may be shared with
// other components; pass nil to compute it here. A program whose loops
// fail minivm.Loops.Check is an error: on it the static anchor tables
// would not be exact.
func NewDetector(prog *minivm.Program, loops *minivm.Loops, set *MarkerSet, onFire BoundaryFunc) (*Detector, error) {
	if loops == nil {
		loops = minivm.FindLoops(prog)
	}
	if err := loops.Check(); err != nil {
		return nil, fmt.Errorf("core: detector: %w", err)
	}
	d := &Detector{
		set:    set,
		act:    make([]int32, len(prog.Procs)),
		seen:   make([]uint64, len(set.Markers)),
		fired:  make([]uint64, len(set.Markers)),
		onFire: onFire,
	}
	d.compile(prog, loops)
	entry := prog.EntryProc()
	d.act[entry.ID] = 1
	d.open(d.root)
	d.open(d.body[entry.ID])
	return d, nil
}

// compile fills the anchor tables with the marker on the edge the Walker
// opens at each anchor; of several markers on one edge, the first.
func (d *Detector) compile(prog *minivm.Program, loops *minivm.Loops) {
	first := make(map[EdgeKey]int32, len(d.set.Markers))
	for i := len(d.set.Markers) - 1; i >= 0; i-- {
		first[d.set.Markers[i].Key] = int32(i)
	}
	marker := func(from, to NodeKey, site int) int32 {
		if i, ok := first[EdgeKey{From: from, To: to, Site: site}]; ok {
			return i
		}
		return -1
	}
	d.anchors = make([]anchor, prog.NumBlocks)
	d.body = make([]int32, len(prog.Procs))
	for _, pr := range prog.Procs {
		body := NodeKey{Kind: ProcBody, ID: pr.ID}
		d.body[pr.ID] = marker(NodeKey{Kind: ProcHead, ID: pr.ID}, body, pr.Blocks[0].ID)
		// ctx[i] is the context node of an anchor at block index i: the
		// body of the innermost loop containing it, else the procedure's
		// body. Loops come in head order, so when a loop is reached its
		// head's ctx is still its parent's body: its entry's context.
		ctx := make([]NodeKey, len(pr.Blocks))
		for i, b := range pr.Blocks {
			ctx[i] = body
			d.anchors[b.ID] = anchor{entry: -1, iter: -1, call: -1, rcall: -1}
		}
		for _, l := range loops.ByProc[pr.ID] {
			h := l.Head.ID
			head, lbody := NodeKey{Kind: LoopHead, ID: h}, NodeKey{Kind: LoopBody, ID: h}
			a := &d.anchors[h]
			a.loop, a.entry, a.iter = l, marker(ctx[l.Head.Index], head, h), marker(head, lbody, h)
			for i := l.Head.Index; i <= l.End; i++ {
				ctx[i] = lbody
			}
		}
		for _, b := range pr.Blocks {
			if b.Term.Kind == minivm.TermCall {
				a, c := &d.anchors[b.ID], b.Term.Callee
				a.call = marker(ctx[b.Index], NodeKey{Kind: ProcHead, ID: c}, b.ID)
				a.rcall = marker(ctx[b.Index], NodeKey{Kind: ProcBody, ID: c}, b.ID)
			}
		}
	}
	entry := prog.EntryProc()
	d.root = marker(NodeKey{Kind: RootKind}, NodeKey{Kind: ProcHead, ID: entry.ID}, entry.Blocks[0].ID)
}

// open counts a traversal of the edge whose marker is i (none when i is
// negative).
func (d *Detector) open(i int32) {
	if i >= 0 {
		d.fire(i)
	}
}

// fire counts a traversal of marker i's edge, firing every GroupN-th at
// the current instruction count.
func (d *Detector) fire(i int32) {
	d.seen[i]++
	if (d.seen[i]-1)%d.set.Markers[i].GroupN == 0 {
		d.fired[i]++
		if d.onFire != nil {
			d.onFire(int(i), d.instrs)
		}
	}
}

// ObservedEvents implements minivm.EventMasker: detection follows control
// flow (blocks, calls, returns) and never reads branch outcomes or memory
// references.
func (d *Detector) ObservedEvents() minivm.EventMask {
	return minivm.EvBlock | minivm.EvCall | minivm.EvReturn
}

// OnBlock implements minivm.Observer. Both opens happen at the count
// before b: first the iteration of a loop whose head ran last, when b is
// the first block of its body, then the entry of the loop b heads when
// the previous block lies outside it. An executed head leaves its
// iteration marker pending (a head that is its own latch keeps it
// pending).
func (d *Detector) OnBlock(b *minivm.Block) {
	if d.pending {
		if h := &d.anchors[d.prev.ID]; b != d.prev && h.loop.Contains(b.Index) {
			d.fire(h.iter)
		}
	}
	a := &d.anchors[b.ID]
	d.pending = a.iter >= 0
	if a.entry >= 0 && (d.prev == nil || !a.loop.Contains(d.prev.Index)) {
		d.fire(a.entry)
	}
	d.prev = b
	d.instrs += uint64(b.Weight())
}

// OnCall implements minivm.Observer. A call from a loop head whose
// iteration is pending (the condition itself calls) opens the iteration
// first; a call into an active procedure is recursive and opens only the
// edge into its body.
func (d *Detector) OnCall(site *minivm.Block, callee *minivm.Proc) {
	a := &d.anchors[site.ID]
	if d.pending {
		d.fire(a.iter)
	}
	if d.act[callee.ID] > 0 {
		d.open(a.rcall)
	} else {
		d.open(a.call)
		d.open(d.body[callee.ID])
	}
	d.act[callee.ID]++
	d.callers = append(d.callers, site)
	d.prev, d.pending = nil, false
}

// OnReturn implements minivm.Observer: the caller resumes after its call
// site, with no iteration pending (the call opened it).
func (d *Detector) OnReturn(callee *minivm.Proc) {
	d.act[callee.ID]--
	if n := len(d.callers); n > 0 {
		d.prev, d.pending = d.callers[n-1], false
		d.callers = d.callers[:n-1]
	}
}

// OnBranch implements minivm.Observer.
func (d *Detector) OnBranch(*minivm.Block, bool) {}

// OnMem implements minivm.Observer.
func (d *Detector) OnMem(uint64, bool) {}

// Fired reports how many times marker i fired.
func (d *Detector) Fired(i int) uint64 { return d.fired[i] }

// Firing is one recorded marker firing: the marker's index in its set and
// the dynamic instruction count at the firing point.
type Firing struct {
	Marker int
	At     uint64
}

// DetectFirings runs prog under a Detector for set and returns every
// firing in execution order, the finished machine (for
// output and instruction-count inspection) and the entry procedure's
// return value. It is the analysis-side reference the correctness
// harness compares instrumented binaries and other compilations against.
func DetectFirings(prog *minivm.Program, set *MarkerSet, args ...int64) ([]Firing, *minivm.Machine, int64, error) {
	if err := prog.Check(); err != nil {
		return nil, nil, 0, fmt.Errorf("core: detect firings: %w", err)
	}
	var seq []Firing
	det, err := NewDetector(prog, nil, set, func(marker int, at uint64) {
		seq = append(seq, Firing{Marker: marker, At: at})
	})
	if err != nil {
		return nil, nil, 0, fmt.Errorf("core: detect firings: %w", err)
	}
	m := minivm.NewMachine(prog, det)
	rv, err := m.Run(args...)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("core: detect firings: %w", err)
	}
	return seq, m, rv, nil
}

// InstrumentedFirings physically instruments prog with set (Instrument),
// runs the rewritten binary, and returns the mark-stream firings with
// GroupN applied, the finished machine and the entry procedure's return
// value, as DetectFirings does. Firing.At counts the instrumented
// binary's instructions, which include the inserted marks and
// trampolines — compare marker sequences across binaries, not positions.
func InstrumentedFirings(prog *minivm.Program, set *MarkerSet, args ...int64) ([]Firing, *minivm.Machine, int64, error) {
	inst, err := Instrument(prog, set)
	if err != nil {
		return nil, nil, 0, err
	}
	var seq []Firing
	m := minivm.NewMachine(inst, nil)
	h := NewMarkHandler(set, func(marker int) {
		seq = append(seq, Firing{Marker: marker, At: m.Instructions()})
	})
	m.MarkFunc = h.Fn
	rv, err := m.Run(args...)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("core: instrumented firings: %w", err)
	}
	return seq, m, rv, nil
}

// TotalFired reports the total number of marker firings (phase-change
// signals) observed.
func (d *Detector) TotalFired() uint64 {
	var n uint64
	for _, f := range d.fired {
		n += f
	}
	return n
}
