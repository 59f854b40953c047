package minivm

import (
	"errors"
	"fmt"

	"phasemark/internal/obs"
)

// Observer watches a program execute. It is the moral equivalent of the
// paper's ATOM instrumentation: block executions (with static weights),
// call/return edges, conditional-branch outcomes, and data memory
// references. All callbacks are synchronous with execution order.
//
// OnBlock fires when a block begins executing; its straight-line
// instructions and terminator then execute before the next event. OnCall
// fires after the caller block's OnBlock (the call terminator is the last
// instruction of that block) and before the callee's entry OnBlock.
type Observer interface {
	// OnBlock is invoked once per dynamic execution of b.
	OnBlock(b *Block)
	// OnCall is invoked when the call terminator of site transfers to callee.
	OnCall(site *Block, callee *Proc)
	// OnReturn is invoked when callee returns to its caller.
	OnReturn(callee *Proc)
	// OnBranch reports the outcome of a conditional branch ending block b.
	OnBranch(b *Block, taken bool)
	// OnMem reports a data memory reference at byte address addr.
	OnMem(addr uint64, write bool)
}

// EventMask is a bit set of the Observer callbacks an observer consumes.
type EventMask uint8

// The observable event kinds.
const (
	EvBlock EventMask = 1 << iota
	EvCall
	EvReturn
	EvBranch
	EvMem

	// EvAll is every event — the conservative default for observers that
	// do not declare a mask.
	EvAll = EvBlock | EvCall | EvReturn | EvBranch | EvMem
)

// EventMasker is optionally implemented by Observers to declare which
// events they actually consume. The machine resolves the observer once per
// event kind from the mask, so an event the observer does not consume
// costs no call at all (the paper's §4 concern: instrumentation overhead
// on events the analysis never reads). Observers without the method
// receive every event.
//
// The mask must be a static property of the observer: the machine reads it
// once at construction.
type EventMasker interface {
	ObservedEvents() EventMask
}

// MaskOf reports the events o consumes: its declared mask, or EvAll when
// it does not implement EventMasker (nil observers consume nothing).
func MaskOf(o Observer) EventMask {
	if o == nil {
		return 0
	}
	if em, ok := o.(EventMasker); ok {
		return em.ObservedEvents()
	}
	return EvAll
}

// NopObserver implements Observer with no-ops; embed it to observe only
// some events. It deliberately does NOT implement EventMasker: an embedder
// overriding OnBlock alone must still receive OnBlock, so the conservative
// EvAll default applies unless the embedder declares its own mask.
type NopObserver struct{}

// OnBlock implements Observer.
func (NopObserver) OnBlock(*Block) {}

// OnCall implements Observer.
func (NopObserver) OnCall(*Block, *Proc) {}

// OnReturn implements Observer.
func (NopObserver) OnReturn(*Proc) {}

// OnBranch implements Observer.
func (NopObserver) OnBranch(*Block, bool) {}

// OnMem implements Observer.
func (NopObserver) OnMem(uint64, bool) {}

// Runtime errors surfaced by the interpreter.
var (
	ErrDivByZero     = errors.New("minivm: division by zero")
	ErrMemFault      = errors.New("minivm: memory access out of range")
	ErrStackOverflow = errors.New("minivm: call stack overflow")
	ErrInstrLimit    = errors.New("minivm: instruction limit exceeded")
	// ErrInvalidProgram is returned by Run on a machine whose program
	// failed Program.Validate in NewMachine; such a machine never executes.
	ErrInvalidProgram = errors.New("minivm: invalid program")
)

// WordBytes is the byte size of one memory word; OnMem addresses are word
// addresses scaled by WordBytes so cache simulators see byte addresses.
const WordBytes = 8

// DefaultMaxInstrs bounds runaway executions (inputs are sized well below
// this in practice).
const DefaultMaxInstrs = 2_000_000_000

// DefaultMaxDepth bounds the call stack.
const DefaultMaxDepth = 100_000

// Execution metrics, aggregated across every machine in the process. The
// interpreter counts events in plain per-machine fields (the inner loop is
// single-goroutine) and flushes the deltas once per Run, so the hot loop
// pays no atomic operations.
var (
	obsRuns     = obs.NewCounter("minivm.runs")
	obsInstrs   = obs.NewCounter("minivm.instructions")
	obsBranches = obs.NewCounter("minivm.branches")
	obsCalls    = obs.NewCounter("minivm.calls")
	obsMemRefs  = obs.NewCounter("minivm.mem_refs")
	obsMarks    = obs.NewCounter("minivm.marker_fires")
	obsRunLen   = obs.NewHist("minivm.run_instructions")
)

// Machine executes a validated Program. The zero value is not usable; use
// NewMachine.
type Machine struct {
	prog *Program
	mem  []int64
	err  error // validation failure, returned by every Run

	// The observer passed to NewMachine, once per event kind: nil where
	// its EventMask excludes the kind, so that event is not emitted.
	onBlock  Observer
	onCall   Observer
	onRet    Observer
	onBranch Observer
	onMem    Observer

	// regs is the register arena: each frame owns the words
	// [frame.base, frame.base+frame.proc.NumRegs). Calls extend it and
	// returns truncate it, so the steady state allocates nothing. Its
	// capacity always reaches regWindow words past the top frame's base
	// (see window).
	regs   []int64
	frames []frame

	out       []int64
	instrs    uint64
	branches  uint64
	calls     uint64
	memRefs   uint64
	marks     uint64
	flushed   [5]uint64 // instrs/branches/calls/memRefs/marks already flushed
	MaxInstrs uint64
	MaxDepth  int
	// MarkFunc, when set, receives the ID of every OpMark instruction
	// executed — the runtime hook behind statically inserted phase
	// markers (core.Instrument).
	MarkFunc func(id int64)
}

// NewMachine builds a machine for prog reporting to observer (nil for
// none). It validates prog once (Program.Validate): a machine whose
// program fails never executes, and its Run returns an error wrapping
// ErrInvalidProgram. The interpreter relies on that check for memory
// safety of its register windows, so prog must not change after
// NewMachine. The observer's EventMask is read here, once. A caller that
// needs several analyses composes them into one observer, in the order
// its analysis requires.
func NewMachine(prog *Program, observer Observer) *Machine {
	m := &Machine{
		prog:      prog,
		MaxInstrs: DefaultMaxInstrs,
		MaxDepth:  DefaultMaxDepth,
	}
	if m.err = prog.Check(); m.err != nil {
		return m
	}
	m.mem = make([]int64, prog.GlobalWords)
	ev := MaskOf(observer)
	on := func(kind EventMask) Observer {
		if ev&kind == 0 {
			return nil
		}
		return observer
	}
	m.onBlock, m.onCall, m.onRet = on(EvBlock), on(EvCall), on(EvReturn)
	m.onBranch, m.onMem = on(EvBranch), on(EvMem)
	return m
}

// Instructions reports the number of dynamic instructions executed so far
// (block weights summed over executed blocks).
func (m *Machine) Instructions() uint64 { return m.instrs }

// Branches reports the number of conditional branches executed so far.
func (m *Machine) Branches() uint64 { return m.branches }

// Calls reports the number of procedure calls executed so far.
func (m *Machine) Calls() uint64 { return m.calls }

// MemRefs reports the number of data memory references executed so far.
func (m *Machine) MemRefs() uint64 { return m.memRefs }

// flushObs folds the counts accumulated since the previous flush into the
// process-wide metrics. Run defers it, so truncated (errored) executions
// are still accounted.
func (m *Machine) flushObs() {
	obsRuns.Inc()
	obsRunLen.Observe(m.instrs - m.flushed[0])
	obsInstrs.Add(m.instrs - m.flushed[0])
	obsBranches.Add(m.branches - m.flushed[1])
	obsCalls.Add(m.calls - m.flushed[2])
	obsMemRefs.Add(m.memRefs - m.flushed[3])
	obsMarks.Add(m.marks - m.flushed[4])
	m.flushed = [5]uint64{m.instrs, m.branches, m.calls, m.memRefs, m.marks}
}

// Output returns the values emitted by OpOut, in order.
func (m *Machine) Output() []int64 { return m.out }

// Mem exposes the data memory (for tests).
func (m *Machine) Mem() []int64 { return m.mem }

// Reset returns the machine to its pre-Run state — data memory zeroed,
// output truncated, event counters cleared — while keeping every allocated
// buffer (memory image, register arena, frame stack, output capacity), so
// a warmed machine re-runs the program without heap allocations. Observer
// state is NOT touched: callers reusing stateful observers across runs
// must reset those separately. Must not be called while Run is executing.
func (m *Machine) Reset() {
	clear(m.mem)
	m.out = m.out[:0]
	m.instrs, m.branches, m.calls, m.memRefs, m.marks = 0, 0, 0, 0, 0
	m.flushed = [5]uint64{}
}

type frame struct {
	proc   *Proc
	base   int   // register window start in Machine.regs
	retBlk int   // caller block index to resume at
	retReg uint8 // caller register receiving the return value
}

// regWindow is the fixed span Run addresses a frame's registers through:
// every register operand is a uint8, so it indexes a *[regWindow]int64
// with no bounds check. Validation bounds each operand by its proc's
// NumRegs (at most NumRegsMax), so a frame only touches the first
// NumRegs words of its window and never its callee's.
const regWindow = 256

// growZero extends s by n zeroed elements for a frame based at len(s),
// reusing capacity when it can, and keeps regWindow words of capacity
// past that base so window(s, len(s)) stays in range.
func growZero(s []int64, n int) []int64 {
	l := len(s)
	if l+regWindow <= cap(s) {
		s = s[:l+n]
		clear(s[l:])
		return s
	}
	ns := make([]int64, l+n, 2*(l+regWindow))
	copy(ns, s)
	return ns
}

// window returns the regWindow words of the arena starting at a frame's
// base; growZero guarantees the capacity.
func window(regs []int64, base int) *[regWindow]int64 {
	return (*[regWindow]int64)(regs[base : base+regWindow])
}

// Run executes the program's entry procedure with the given arguments
// (copied into the entry proc's first registers). It returns the entry
// procedure's return value (0 if it halts without returning).
//
// The hot loop emits each event kind the observer consumes with one nil
// check and one call; the other kinds are not dispatched.
func (m *Machine) Run(args ...int64) (int64, error) {
	if m.err != nil {
		return 0, m.err
	}
	entry := m.prog.EntryProc()
	if len(args) != entry.NumArgs {
		return 0, fmt.Errorf("minivm: entry %q wants %d args, got %d",
			entry.Name, entry.NumArgs, len(args))
	}
	defer m.flushObs()
	m.regs = growZero(m.regs[:0], entry.NumRegs)
	copy(m.regs, args)
	m.frames = append(m.frames[:0], frame{proc: entry})
	fr := &m.frames[0]
	bi := 0

	for {
		b := fr.proc.Blocks[bi]
		if o := m.onBlock; o != nil {
			o.OnBlock(b)
		}
		m.instrs += uint64(b.Weight())
		if m.instrs > m.MaxInstrs {
			return 0, fmt.Errorf("%w (limit %d)", ErrInstrLimit, m.MaxInstrs)
		}
		regs := window(m.regs, fr.base)
		for _, in := range b.Instr {
			switch in.Op {
			case OpNop:
			case OpConst:
				regs[in.A] = in.Imm
			case OpMov:
				regs[in.A] = regs[in.B]
			case OpAdd:
				regs[in.A] = regs[in.B] + regs[in.C]
			case OpSub:
				regs[in.A] = regs[in.B] - regs[in.C]
			case OpMul:
				regs[in.A] = regs[in.B] * regs[in.C]
			case OpDiv:
				if regs[in.C] == 0 {
					return 0, fmt.Errorf("%w in %s b%d", ErrDivByZero, fr.proc.Name, b.Index)
				}
				regs[in.A] = regs[in.B] / regs[in.C]
			case OpMod:
				if regs[in.C] == 0 {
					return 0, fmt.Errorf("%w in %s b%d", ErrDivByZero, fr.proc.Name, b.Index)
				}
				regs[in.A] = regs[in.B] % regs[in.C]
			case OpAnd:
				regs[in.A] = regs[in.B] & regs[in.C]
			case OpOr:
				regs[in.A] = regs[in.B] | regs[in.C]
			case OpXor:
				regs[in.A] = regs[in.B] ^ regs[in.C]
			case OpShl:
				regs[in.A] = regs[in.B] << (uint64(regs[in.C]) & 63)
			case OpShr:
				regs[in.A] = int64(uint64(regs[in.B]) >> (uint64(regs[in.C]) & 63))
			case OpNeg:
				regs[in.A] = -regs[in.B]
			case OpNot:
				regs[in.A] = ^regs[in.B]
			case OpAddI:
				regs[in.A] = regs[in.B] + in.Imm
			case OpMulI:
				regs[in.A] = regs[in.B] * in.Imm
			case OpLoad:
				addr := regs[in.B] + in.Imm
				if addr < 0 || addr >= int64(len(m.mem)) {
					return 0, fmt.Errorf("%w: load word %d in %s b%d", ErrMemFault, addr, fr.proc.Name, b.Index)
				}
				m.memRefs++
				if o := m.onMem; o != nil {
					o.OnMem(uint64(addr)*WordBytes, false)
				}
				regs[in.A] = m.mem[addr]
			case OpStore:
				addr := regs[in.B] + in.Imm
				if addr < 0 || addr >= int64(len(m.mem)) {
					return 0, fmt.Errorf("%w: store word %d in %s b%d", ErrMemFault, addr, fr.proc.Name, b.Index)
				}
				m.memRefs++
				if o := m.onMem; o != nil {
					o.OnMem(uint64(addr)*WordBytes, true)
				}
				m.mem[addr] = regs[in.A]
			case OpOut:
				m.out = append(m.out, regs[in.A])
			case OpMark:
				m.marks++
				if m.MarkFunc != nil {
					m.MarkFunc(in.Imm)
				}
			}
		}

		t := &b.Term
		switch t.Kind {
		case TermJump:
			bi = t.Target
		case TermBranch:
			m.branches++
			taken := t.Cond.Eval(regs[t.A], regs[t.B])
			if o := m.onBranch; o != nil {
				o.OnBranch(b, taken)
			}
			if taken {
				bi = t.Target
			} else {
				bi = t.Else
			}
		case TermCall:
			m.calls++
			if len(m.frames) >= m.MaxDepth {
				return 0, ErrStackOverflow
			}
			callee := m.prog.Procs[t.Callee]
			base := len(m.regs)
			m.regs = growZero(m.regs, callee.NumRegs)
			// regs may have been reallocated by the grow: re-derive the
			// caller window from the arena before copying arguments.
			src, dst := window(m.regs, fr.base), window(m.regs, base)
			for i, a := range t.Args {
				dst[i] = src[a]
			}
			if o := m.onCall; o != nil {
				o.OnCall(b, callee)
			}
			m.frames = append(m.frames, frame{
				proc:   callee,
				base:   base,
				retBlk: t.Next,
				retReg: t.Ret,
			})
			fr = &m.frames[len(m.frames)-1]
			bi = 0
		case TermRet:
			rv := regs[t.Ret]
			if o := m.onRet; o != nil {
				o.OnReturn(fr.proc)
			}
			if len(m.frames) == 1 {
				return rv, nil
			}
			retBlk, retReg := fr.retBlk, fr.retReg
			m.regs = m.regs[:fr.base]
			m.frames = m.frames[:len(m.frames)-1]
			fr = &m.frames[len(m.frames)-1]
			window(m.regs, fr.base)[retReg] = rv
			bi = retBlk
		case TermHalt:
			// Unwind observers for any active frames so profilers see a
			// balanced call/return stream.
			if o := m.onRet; o != nil {
				for i := len(m.frames) - 1; i >= 0; i-- {
					o.OnReturn(m.frames[i].proc)
				}
			}
			return 0, nil
		}
	}
}
