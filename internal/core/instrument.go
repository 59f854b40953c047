package core

import (
	"fmt"
	"sort"

	"phasemark/internal/minivm"
)

// Instrument produces a copy of prog with `mark` instructions physically
// inserted at the marker anchors — the deployment path the paper describes
// in §5.3 ("this can be done with a binary modification tool such as OM or
// ALTO"): once markers are compiled into the binary, any runtime detects
// phase changes by watching the mark stream, with no analysis machinery in
// the loop.
//
// Anchor placement per marker kind:
//
//   - call edges (into a procedure head): a mark at the end of the call
//     site block, immediately before the call;
//   - procedure head→body edges: a mark at the top of the callee's entry
//     block (fires per activation);
//   - loop entry edges (into a loop head): every control-flow edge from
//     outside the loop's region into its head is *split* — a trampoline
//     block holding the mark is inserted on the edge — so the mark fires
//     exactly on entry, never on iteration, even for conditional entries;
//   - loop iteration edges (head→body): the head's in-region outgoing
//     edges are split the same way, firing once per iteration.
//
// Static marks are context-insensitive, where the Detector reads the
// call-loop context as the profiler's walker does. On recursion this
// differs: a head→body mark fires on every activation, and the Detector
// fires it once per outermost episode; a call-site mark fires on every
// call from its site, and the Detector counts a call into an
// already-active procedure on the recursive edge into its body instead.
// GroupN counting is the mark consumer's job (see MarkHandler).
func Instrument(prog *minivm.Program, set *MarkerSet) (*minivm.Program, error) {
	clone := cloneProgram(prog)
	loops := minivm.FindLoops(clone)

	// Simple block insertions.
	type blockIns struct {
		block *minivm.Block
		atEnd bool
		mark  int
	}
	var blockInsert []blockIns
	// Edge splits: insert a trampoline carrying the mark on the edge
	// (fromIdx --slot--> toIdx) within proc.
	type split struct {
		proc    *minivm.Proc
		fromIdx int
		slot    int // 0=Target, 1=Else, 2=Next
		toIdx   int
		mark    int
	}
	var splits []split

	blockByID := func(id int) *minivm.Block {
		b := clone.BlockByID(id)
		if b == nil {
			panic(fmt.Sprintf("core: instrument: no block %d", id))
		}
		return b
	}
	addLoopSplits := func(mi int, head *minivm.Block, entry bool) error {
		l := loops.LoopAtHead(head)
		if l == nil {
			return fmt.Errorf("core: instrument: marker %v names a non-loop block", set.Markers[mi].Key)
		}
		n := 0
		for _, b := range l.Proc.Blocks {
			inRegion := l.Contains(b.Index)
			if entry && inRegion {
				continue // entries come from outside the region
			}
			if !entry && b != head {
				continue // iterations leave the head block
			}
			for slot, s := range termSlots(b) {
				if s == nil {
					continue
				}
				if entry && *s == head.Index {
					splits = append(splits, split{proc: l.Proc, fromIdx: b.Index, slot: slot, toIdx: head.Index, mark: mi})
					n++
				}
				if !entry && *s != head.Index && l.Contains(*s) {
					splits = append(splits, split{proc: l.Proc, fromIdx: b.Index, slot: slot, toIdx: *s, mark: mi})
					n++
				}
			}
		}
		if n == 0 {
			return fmt.Errorf("core: instrument: no anchor edges for marker %v", set.Markers[mi].Key)
		}
		return nil
	}

	for mi, m := range set.Markers {
		switch {
		case m.Key.To.Kind == LoopHead:
			if err := addLoopSplits(mi, blockByID(m.Key.To.ID), true); err != nil {
				return nil, err
			}
		case m.Key.To.Kind == LoopBody:
			if err := addLoopSplits(mi, blockByID(m.Key.To.ID), false); err != nil {
				return nil, err
			}
		case m.Key.From.Kind == ProcHead && m.Key.To.Kind == ProcBody:
			blockInsert = append(blockInsert, blockIns{block: blockByID(m.Key.Site), atEnd: false, mark: mi})
		default:
			// Call edge (including the virtual root's entry edge).
			site := blockByID(m.Key.Site)
			if site.Term.Kind == minivm.TermCall {
				blockInsert = append(blockInsert, blockIns{block: site, atEnd: true, mark: mi})
			} else {
				blockInsert = append(blockInsert, blockIns{block: site, atEnd: false, mark: mi})
			}
		}
	}

	// Apply edge splits per proc, highest insertion point first so earlier
	// indices stay valid.
	sort.SliceStable(splits, func(i, j int) bool { return splits[i].toIdx > splits[j].toIdx })
	for _, sp := range splits {
		applySplit(sp.proc, sp.fromIdx, sp.slot, sp.toIdx, sp.mark)
		// Adjust pending splits in the same proc for the index shift.
		for k := range splits {
			o := &splits[k]
			if o.proc != sp.proc {
				continue
			}
			if o.fromIdx >= sp.toIdx {
				o.fromIdx++
			}
			if o.toIdx >= sp.toIdx {
				o.toIdx++
			}
		}
	}

	for _, bi := range blockInsert {
		in := minivm.Instr{Op: minivm.OpMark, Imm: int64(bi.mark)}
		if bi.atEnd {
			bi.block.Instr = append(bi.block.Instr, in)
		} else {
			bi.block.Instr = append([]minivm.Instr{in}, bi.block.Instr...)
		}
	}

	clone.RenumberBlocks()
	if err := clone.Validate(); err != nil {
		return nil, fmt.Errorf("core: instrument: %w", err)
	}
	return clone, nil
}

// termSlots returns addressable control-transfer slots of a block's
// terminator, indexed 0=Target, 1=Else, 2=Next (nil where unused).
func termSlots(b *minivm.Block) [3]*int {
	switch b.Term.Kind {
	case minivm.TermJump:
		return [3]*int{&b.Term.Target, nil, nil}
	case minivm.TermBranch:
		if b.Term.Target == b.Term.Else {
			return [3]*int{&b.Term.Target, nil, nil}
		}
		return [3]*int{&b.Term.Target, &b.Term.Else, nil}
	case minivm.TermCall:
		return [3]*int{nil, nil, &b.Term.Next}
	default:
		return [3]*int{}
	}
}

// applySplit inserts a trampoline block holding mark on the edge
// from --slot--> to, placing it immediately before `to` so all branches
// keep their direction (forward edges stay forward, back edges stay back).
func applySplit(pr *minivm.Proc, fromIdx, slot, toIdx, mark int) {
	t := toIdx // trampoline position
	tramp := &minivm.Block{
		Index: t,
		Proc:  pr,
		Instr: []minivm.Instr{{Op: minivm.OpMark, Imm: int64(mark)}},
		Term:  minivm.Term{Kind: minivm.TermJump, Target: toIdx + 1},
		Line:  pr.Blocks[toIdx].Line,
		Col:   pr.Blocks[toIdx].Col,
	}
	// Shift every reference at or beyond the insertion point.
	for _, b := range pr.Blocks {
		for _, s := range termSlots(b) {
			if s != nil && *s >= t {
				*s++
			}
		}
	}
	if fromIdx >= t {
		fromIdx++
	}
	// Splice in the trampoline and retarget the split edge.
	blocks := make([]*minivm.Block, 0, len(pr.Blocks)+1)
	blocks = append(blocks, pr.Blocks[:t]...)
	blocks = append(blocks, tramp)
	blocks = append(blocks, pr.Blocks[t:]...)
	for i, b := range blocks {
		b.Index = i
	}
	pr.Blocks = blocks
	from := pr.Blocks[fromIdx]
	slots := termSlots(from)
	if slots[slot] == nil {
		panic("core: instrument: split slot vanished")
	}
	*slots[slot] = t
}

// cloneProgram deep-copies a program so instrumentation never mutates the
// analyzed binary.
func cloneProgram(p *minivm.Program) *minivm.Program {
	out := &minivm.Program{Entry: p.Entry, GlobalWords: p.GlobalWords}
	for _, pr := range p.Procs {
		np := &minivm.Proc{
			Name: pr.Name, ID: pr.ID, NumArgs: pr.NumArgs,
			NumRegs: pr.NumRegs, Line: pr.Line,
		}
		for _, b := range pr.Blocks {
			nb := &minivm.Block{
				ID: b.ID, Index: b.Index, Proc: np,
				Instr: append([]minivm.Instr(nil), b.Instr...),
				Term:  b.Term,
				Line:  b.Line, Col: b.Col,
			}
			nb.Term.Args = append([]uint8(nil), b.Term.Args...)
			np.Blocks = append(np.Blocks, nb)
		}
		out.Procs = append(out.Procs, np)
	}
	out.RenumberBlocks()
	return out
}

// MarkHandler adapts the raw mark stream of an instrumented binary into
// phase boundaries, applying each marker's GroupN (fire every N-th
// occurrence). Install Fn as the machine's MarkFunc.
type MarkHandler struct {
	set    *MarkerSet
	seen   []uint64
	fired  uint64
	onFire func(marker int)
}

// NewMarkHandler builds a handler; onFire may be nil (counting only).
func NewMarkHandler(set *MarkerSet, onFire func(marker int)) *MarkHandler {
	return &MarkHandler{set: set, seen: make([]uint64, len(set.Markers)), onFire: onFire}
}

// Fn is the minivm.Machine MarkFunc.
func (h *MarkHandler) Fn(id int64) {
	i := int(id)
	if i < 0 || i >= len(h.seen) {
		return
	}
	h.seen[i]++
	if (h.seen[i]-1)%h.set.Markers[i].GroupN == 0 {
		h.fired++
		if h.onFire != nil {
			h.onFire(i)
		}
	}
}

// Fired reports total boundary firings.
func (h *MarkHandler) Fired() uint64 { return h.fired }
