package trace

import "phasemark/internal/minivm"

// FixedCutter is a machine observer that invokes a cut callback every
// step dynamic instructions, aligned to block boundaries: the cut fires
// at the first block whose pre-block instruction count reaches the next
// multiple of step, with the count at that point (so intervals never
// split a basic block). It is the one fixed-length segmentation
// implementation, shared by the timing-model tracer (Run) and the
// multi-configuration cache study (internal/adapt).
type FixedCutter struct {
	minivm.NopObserver
	cut    func(at uint64)
	instrs uint64
	next   uint64
	step   uint64
}

// NewFixedCutter builds a cutter firing cut about every step instructions.
func NewFixedCutter(step uint64, cut func(at uint64)) *FixedCutter {
	return &FixedCutter{cut: cut, next: step, step: step}
}

// ObservedEvents implements minivm.EventMasker: only block executions are
// consumed, so the machine never dispatches branch/call/mem events here.
func (f *FixedCutter) ObservedEvents() minivm.EventMask { return minivm.EvBlock }

// OnBlock implements minivm.Observer.
func (f *FixedCutter) OnBlock(b *minivm.Block) {
	if f.instrs >= f.next {
		f.cut(f.instrs)
		// A block heavier than step can carry instrs past several grid
		// points at once; advance next beyond the current count or every
		// subsequent block would fire a spurious cut (cascading one-block
		// intervals) until the grid caught up.
		for f.next += f.step; f.next <= f.instrs; f.next += f.step {
		}
	}
	f.instrs += uint64(b.Weight())
}
