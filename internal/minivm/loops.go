package minivm

import (
	"errors"
	"fmt"
)

// Loop is a static loop discovered exactly as in the paper: a
// non-interprocedural backwards branch defines a back edge, and the loop is
// the static code region from the backwards branch to its target. The
// target block is the loop head. Multiple back edges to the same head are
// merged into one loop whose region extends to the furthest latch.
type Loop struct {
	Proc    *Proc
	Head    *Block
	End     int   // last block index in the region (furthest latch)
	Latches []int // block indices holding the backwards branches
	Parent  *Loop // innermost enclosing loop, or nil
	Depth   int   // nesting depth; outermost loops have depth 1
}

// Contains reports whether block index bi (within the loop's procedure)
// lies in the loop's static region.
func (l *Loop) Contains(bi int) bool {
	return bi >= l.Head.Index && bi <= l.End
}

// String identifies the loop by procedure and head block.
func (l *Loop) String() string {
	return fmt.Sprintf("loop %s:b%d..b%d", l.Proc.Name, l.Head.Index, l.End)
}

// Loops is the loop table for one program: per-procedure loops ordered by
// head index, plus a head-block lookup. The lookup is a dense slice
// indexed by global block ID — the loop tracker consults it once per
// executed block, and a map probe there dominated the walker's hot path.
type Loops struct {
	ByProc   [][]*Loop // indexed by proc ID, ordered by head index
	headByID []*Loop   // indexed by global block ID; nil for non-heads
	All      []*Loop
}

// LoopAtHead returns the loop whose head is b, or nil.
func (ls *Loops) LoopAtHead(b *Block) *Loop { return ls.headByID[b.ID] }

// FindLoops discovers all loops in the program from backwards branches.
// Our compiler generates only reducible loops entered through their heads,
// so the region-based runtime tracking below is exact; Loops.Check states
// that shape and verifies it for a given program.
func FindLoops(p *Program) *Loops {
	ls := &Loops{
		ByProc:   make([][]*Loop, len(p.Procs)),
		headByID: make([]*Loop, p.NumBlocks),
	}
	for _, pr := range p.Procs {
		byHead := map[int]*Loop{} // head index -> loop
		for _, b := range pr.Blocks {
			for _, tgt := range backEdgeTargets(b) {
				head := pr.Blocks[tgt]
				l := byHead[tgt]
				if l == nil {
					l = &Loop{Proc: pr, Head: head, End: b.Index}
					byHead[tgt] = l
				}
				if b.Index > l.End {
					l.End = b.Index
				}
				l.Latches = append(l.Latches, b.Index)
			}
		}
		// Order by head index; with equal heads impossible (merged).
		var loops []*Loop
		for i := 0; i < len(pr.Blocks); i++ {
			if l := byHead[i]; l != nil {
				loops = append(loops, l)
			}
		}
		// Establish nesting: the innermost loop strictly containing this
		// loop's region. Scanning earlier heads suffices since a parent's
		// head index is <= the child's.
		for i, l := range loops {
			for j := i - 1; j >= 0; j-- {
				cand := loops[j]
				if cand.Head.Index <= l.Head.Index && l.End <= cand.End && cand != l {
					l.Parent = cand
					break
				}
			}
			l.Depth = 1
			if l.Parent != nil {
				l.Depth = l.Parent.Depth + 1
			}
			ls.headByID[l.Head.ID] = l
		}
		ls.ByProc[pr.ID] = loops
		ls.All = append(ls.All, loops...)
	}
	return ls
}

// ErrIrregularLoops is the error Loops.Check wraps for a program whose
// loop regions do not have the shape static marker detection relies on.
var ErrIrregularLoops = errors.New("minivm: irregular loop regions")

// Check verifies that the loop regions are regular: any two loops of a
// procedure are nested or disjoint, and every intra-procedure edge (a
// jump, either branch arm, a call's continuation) that enters a loop's
// region from outside it lands on the loop's head. A procedure's entry is
// its block 0, so no loop contains it without heading it. Under this
// shape the loops active at a block are exactly the loops whose regions
// contain it, so the call-loop context of every marker anchor (call site,
// loop entry, iteration) is a function of its block alone, which is what
// lets a detector fire markers from static tables. It returns nil or an
// error wrapping ErrIrregularLoops that names the first offence.
func (ls *Loops) Check() error {
	for _, loops := range ls.ByProc {
		if len(loops) == 0 {
			continue
		}
		pr := loops[0].Proc
		// Loops are ordered by head; a stack of open regions finds the
		// first pair that overlaps without nesting.
		var open []*Loop
		inner := make([]*Loop, len(pr.Blocks)) // block index -> innermost loop
		for _, l := range loops {
			for len(open) > 0 && open[len(open)-1].End < l.Head.Index {
				open = open[:len(open)-1]
			}
			if n := len(open); n > 0 && l.End > open[n-1].End {
				return fmt.Errorf("%w: %v overlaps %v", ErrIrregularLoops, l, open[n-1])
			}
			open = append(open, l)
			for i := l.Head.Index; i <= l.End; i++ {
				inner[i] = l
			}
		}
		for _, b := range pr.Blocks {
			for _, s := range successors(b) {
				for l := inner[s]; l != nil && !l.Contains(b.Index); l = l.Parent {
					if l.Head.Index != s {
						return fmt.Errorf("%w: %s b%d enters %v at b%d, not its head",
							ErrIrregularLoops, pr.Name, b.Index, l, s)
					}
				}
			}
		}
	}
	return nil
}

// successors returns the intra-procedure successors of b: jump and branch
// targets and a call's continuation.
func successors(b *Block) []int {
	switch b.Term.Kind {
	case TermJump:
		return []int{b.Term.Target}
	case TermBranch:
		return []int{b.Term.Target, b.Term.Else}
	case TermCall:
		return []int{b.Term.Next}
	}
	return nil
}

// backEdgeTargets returns the target block indices of backwards control
// transfers out of b (target index <= b's own index, same procedure).
// Calls and returns are never back edges.
func backEdgeTargets(b *Block) []int {
	var out []int
	switch b.Term.Kind {
	case TermJump:
		if b.Term.Target <= b.Index {
			out = append(out, b.Term.Target)
		}
	case TermBranch:
		if b.Term.Target <= b.Index {
			out = append(out, b.Term.Target)
		}
		if b.Term.Else <= b.Index && b.Term.Else != b.Term.Target {
			out = append(out, b.Term.Else)
		}
	}
	return out
}

// LoopEvents receives runtime loop transitions reconstructed by a
// LoopTracker.
type LoopEvents interface {
	// OnLoopEnter fires when control first reaches the head of l from
	// outside its region.
	OnLoopEnter(l *Loop)
	// OnLoopIterate fires when control re-reaches the head of an active
	// loop (a back edge was taken).
	OnLoopIterate(l *Loop)
	// OnLoopExit fires when control leaves the region of an active loop
	// (including via procedure return).
	OnLoopExit(l *Loop)
}

// LoopTracker reconstructs loop enter/iterate/exit events from the block
// execution stream, maintaining a per-frame stack of active loops. It
// implements Observer, so it can drive a Machine on its own or be called
// from a composite observer's methods, and forwards nothing else.
type LoopTracker struct {
	NopObserver
	loops  *Loops
	ev     LoopEvents
	frames []loopFrame
}

type loopFrame struct {
	active []*Loop
}

// NewLoopTracker builds a tracker for the given loop table reporting to ev.
func NewLoopTracker(loops *Loops, ev LoopEvents) *LoopTracker {
	return &LoopTracker{loops: loops, ev: ev, frames: []loopFrame{{}}}
}

// ObservedEvents implements EventMasker: loop reconstruction needs only
// control-flow events.
func (t *LoopTracker) ObservedEvents() EventMask { return EvBlock | EvCall | EvReturn }

// OnBlock implements Observer.
func (t *LoopTracker) OnBlock(b *Block) {
	fr := &t.frames[len(t.frames)-1]
	// Exit loops whose region no longer contains the current block.
	for len(fr.active) > 0 {
		top := fr.active[len(fr.active)-1]
		if top.Proc == b.Proc && top.Contains(b.Index) {
			break
		}
		fr.active = fr.active[:len(fr.active)-1]
		t.ev.OnLoopExit(top)
	}
	if l := t.loops.headByID[b.ID]; l != nil {
		if n := len(fr.active); n > 0 && fr.active[n-1] == l {
			t.ev.OnLoopIterate(l)
		} else {
			fr.active = append(fr.active, l)
			t.ev.OnLoopEnter(l)
		}
	}
}

// OnCall implements Observer. A popped frame keeps its active-loop
// backing array, so pushing one reuses it instead of allocating the first
// time the callee enters a loop.
func (t *LoopTracker) OnCall(site *Block, callee *Proc) {
	if n := len(t.frames); n < cap(t.frames) {
		t.frames = t.frames[:n+1]
		t.frames[n].active = t.frames[n].active[:0]
		return
	}
	t.frames = append(t.frames, loopFrame{})
}

// OnReturn implements Observer.
func (t *LoopTracker) OnReturn(callee *Proc) {
	fr := &t.frames[len(t.frames)-1]
	for i := len(fr.active) - 1; i >= 0; i-- {
		t.ev.OnLoopExit(fr.active[i])
	}
	if len(t.frames) > 1 {
		t.frames = t.frames[:len(t.frames)-1]
	} else {
		t.frames[0].active = t.frames[0].active[:0]
	}
}
