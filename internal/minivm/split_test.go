package minivm

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"
)

// event is one observer call, comparable so logs compare with ==.
type event struct {
	kind  EventMask
	block *Block // OnBlock, OnBranch; the call site for OnCall
	proc  *Proc  // OnCall callee, OnReturn
	addr  uint64
	flag  bool // branch taken, memory write
}

// logObs records every call it receives; it declares no EventMask, so
// it observes every kind.
type logObs struct{ log []event }

func (o *logObs) OnBlock(b *Block) { o.log = append(o.log, event{kind: EvBlock, block: b}) }
func (o *logObs) OnCall(site *Block, callee *Proc) {
	o.log = append(o.log, event{kind: EvCall, block: site, proc: callee})
}
func (o *logObs) OnReturn(callee *Proc) { o.log = append(o.log, event{kind: EvReturn, proc: callee}) }
func (o *logObs) OnBranch(b *Block, taken bool) {
	o.log = append(o.log, event{kind: EvBranch, block: b, flag: taken})
}
func (o *logObs) OnMem(addr uint64, write bool) {
	o.log = append(o.log, event{kind: EvMem, addr: addr, flag: write})
}

// maskedLogObs records only the kinds its mask declares.
type maskedLogObs struct {
	logObs
	mask EventMask
}

func (o *maskedLogObs) ObservedEvents() EventMask { return o.mask }

// buildSplitProg assembles a program that emits every event kind, nine
// events per iteration, and then ends one way or another:
//
//	proc f(x):     mem[x&1] = x; ret mem[x&1]
//	proc h():      halt
//	proc main(n):  for i in 0..n-1 { r = f(i) }; <end>
//
// where <end> is "ret" (ret r), "halt" (h(), halting with main's and h's
// frames open) or "div" (r / 0, a divide-by-zero error).
func buildSplitProg(t *testing.T, end string) *Program {
	t.Helper()
	f := &Proc{Name: "f", NumArgs: 1, NumRegs: 3}
	f.Blocks = []*Block{{Instr: []Instr{
		{Op: OpConst, A: 2, Imm: 1},
		{Op: OpAnd, A: 1, B: 0, C: 2},
		{Op: OpStore, A: 0, B: 1},
		{Op: OpLoad, A: 1, B: 1},
	}, Term: Term{Kind: TermRet, Ret: 1}}}
	h := &Proc{Name: "h", NumRegs: 1}
	h.Blocks = []*Block{{Term: Term{Kind: TermHalt}}}
	main := &Proc{Name: "main", NumArgs: 1, NumRegs: 4}
	// r0 = n, r1 = i, r2 = f's result, r3 = 0
	main.Blocks = []*Block{
		{Instr: []Instr{{Op: OpConst, A: 1, Imm: 0}, {Op: OpConst, A: 3, Imm: 0}}, Term: Term{Kind: TermJump, Target: 1}},
		{Term: Term{Kind: TermBranch, Cond: CondLT, A: 1, B: 0, Target: 2, Else: 4}},
		{Term: Term{Kind: TermCall, Callee: 0, Args: []uint8{1}, Ret: 2, Next: 3}},
		{Instr: []Instr{{Op: OpAddI, A: 1, B: 1, Imm: 1}}, Term: Term{Kind: TermJump, Target: 1}},
	}
	switch end {
	case "ret":
		main.Blocks = append(main.Blocks, &Block{Term: Term{Kind: TermRet, Ret: 2}})
	case "halt":
		main.Blocks = append(main.Blocks,
			&Block{Term: Term{Kind: TermCall, Callee: 1, Ret: 2, Next: 5}},
			&Block{Term: Term{Kind: TermRet, Ret: 2}})
	case "div":
		main.Blocks = append(main.Blocks, &Block{
			Instr: []Instr{{Op: OpDiv, A: 2, B: 2, C: 3}},
			Term:  Term{Kind: TermRet, Ret: 2}})
	default:
		t.Fatalf("unknown end %q", end)
	}
	p := &Program{Procs: []*Proc{f, h, main}, Entry: 2, GlobalWords: 2}
	f.ID, h.ID, main.ID = 0, 1, 2
	p.RenumberBlocks()
	if err := p.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	return p
}

// splitIters makes the unmasked log span several buffers and end in a
// partial one.
const splitIters = 10_000

// waitGoroutines fails the test unless the goroutine count is back at
// base within a short window (an exiting goroutine may still be counted
// for a moment after it signalled its end).
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(50 * time.Millisecond)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines running after RunSplit returned, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRunSplitReplaysSerialEvents pins the record/replay split to the
// serial machine: for every way a run can end (return, halt with frames
// open, a divide-by-zero error) and for an unmasked observer and two
// masked ones, RunSplit delivers exactly the serial machine's event
// sequence and returns its instruction count and error. The split also
// ships one buffer per splitBufWords recorded events, the last one
// partial, and starts no goroutine that outlives it.
func TestRunSplitReplaysSerialEvents(t *testing.T) {
	for _, end := range []string{"ret", "halt", "div"} {
		p := buildSplitProg(t, end)
		for _, mask := range []EventMask{EvAll, EvBlock | EvReturn, EvCall | EvBranch | EvMem} {
			label := fmt.Sprintf("%s/mask=%05b", end, mask)
			newObs := func() (Observer, *logObs) {
				if mask == EvAll {
					o := &logObs{}
					return o, o
				}
				o := &maskedLogObs{mask: mask}
				return o, &o.logObs
			}
			o, want := newObs()
			m := NewMachine(p, o)
			_, wantErr := m.Run(splitIters)

			o, got := newObs()
			base, buffers := runtime.NumGoroutine(), obsSplitBuffers.Load()
			instrs, err := RunSplit(p, o, nil, splitIters)
			waitGoroutines(t, base)

			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("%s: err = %v, serial machine returned %v", label, err, wantErr)
			}
			if end == "div" && !errors.Is(err, ErrDivByZero) {
				t.Fatalf("%s: err = %v, want ErrDivByZero", label, err)
			}
			if instrs != m.Instructions() {
				t.Fatalf("%s: %d instructions, serial machine ran %d", label, instrs, m.Instructions())
			}
			if !slices.Equal(got.log, want.log) {
				n := min(len(got.log), len(want.log))
				i := 0
				for i < n && got.log[i] == want.log[i] {
					i++
				}
				t.Fatalf("%s: replay diverges at event %d of %d (serial %d)", label, i, len(got.log), len(want.log))
			}
			if mask == EvAll && len(want.log) < 2*splitBufWords {
				t.Fatalf("%s: only %d events, too few to span the ring", label, len(want.log))
			}
			if want := (len(want.log) + splitBufWords - 1) / splitBufWords; obsSplitBuffers.Load()-buffers != uint64(want) {
				t.Fatalf("%s: %d buffers shipped for %d events, want %d", label, obsSplitBuffers.Load()-buffers, len(got.log), want)
			}
		}
	}
}

// panicObs panics on its limit-th event.
type panicObs struct {
	NopObserver
	n, limit int
}

func (o *panicObs) OnBlock(*Block) {
	if o.n++; o.n == o.limit {
		panic("observer panic")
	}
}

// countObs counts block events.
type countObs struct {
	NopObserver
	n int
}

func (o *countObs) OnBlock(*Block)            { o.n++ }
func (o *countObs) ObservedEvents() EventMask { return EvBlock }

// TestRunSplitStopsAndJoins pins the split's two early exits: a panic in
// the observer propagates to RunSplit's caller unrecovered, and a stop
// that reports true ends the replay after the buffer it follows while the
// execution runs to its end; either way the producer has exited by the
// time RunSplit returns or unwinds.
func TestRunSplitStopsAndJoins(t *testing.T) {
	p := buildSplitProg(t, "ret")
	serial := NewMachine(p, nil)
	if _, err := serial.Run(splitIters); err != nil {
		t.Fatal(err)
	}

	t.Run("panic", func(t *testing.T) {
		base := runtime.NumGoroutine()
		func() {
			defer func() {
				if r := recover(); r != "observer panic" {
					t.Fatalf("recovered %v, want the observer's panic", r)
				}
			}()
			RunSplit(p, &panicObs{limit: splitBufWords + 10}, nil, splitIters)
			t.Fatal("RunSplit returned past an observer panic")
		}()
		waitGoroutines(t, base)
	})

	t.Run("stop", func(t *testing.T) {
		base := runtime.NumGoroutine()
		o, stops := &countObs{}, 0
		instrs, err := RunSplit(p, o, func() bool { stops++; return true }, splitIters)
		if err != nil {
			t.Fatal(err)
		}
		waitGoroutines(t, base)
		if stops != 1 || o.n != splitBufWords {
			t.Fatalf("stop asked %d times, observer saw %d events; want 1 and one buffer (%d)", stops, o.n, splitBufWords)
		}
		if instrs != serial.Instructions() {
			t.Fatalf("stopped split ran %d instructions, want the whole run's %d", instrs, serial.Instructions())
		}
	})
}
