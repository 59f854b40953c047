package minivm

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// buildProg assembles a small hand-written program:
//
//	proc main(n):      sum = 0; for i in 0..n-1 { sum += i }; out sum; ret sum
func buildProg(t *testing.T) *Program {
	t.Helper()
	main := &Proc{Name: "main", NumArgs: 1, NumRegs: 5}
	// r0 = n, r1 = sum, r2 = i, r3 = scratch
	b0 := &Block{Instr: []Instr{
		{Op: OpConst, A: 1, Imm: 0},
		{Op: OpConst, A: 2, Imm: 0},
	}, Term: Term{Kind: TermJump, Target: 1}}
	b1 := &Block{Term: Term{Kind: TermBranch, Cond: CondLT, A: 2, B: 0, Target: 2, Else: 3}}
	b2 := &Block{Instr: []Instr{
		{Op: OpAdd, A: 1, B: 1, C: 2},
		{Op: OpAddI, A: 2, B: 2, Imm: 1},
	}, Term: Term{Kind: TermJump, Target: 1}} // backwards branch -> loop
	b3 := &Block{Instr: []Instr{
		{Op: OpOut, A: 1},
	}, Term: Term{Kind: TermRet, Ret: 1}}
	main.Blocks = []*Block{b0, b1, b2, b3}
	p := &Program{Procs: []*Proc{main}}
	main.ID = 0
	p.RenumberBlocks()
	if err := p.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	return p
}

func TestInterpreterSumLoop(t *testing.T) {
	p := buildProg(t)
	m := NewMachine(p, nil)
	rv, err := m.Run(10)
	if err != nil {
		t.Fatal(err)
	}
	if rv != 45 {
		t.Fatalf("sum = %d, want 45", rv)
	}
	if out := m.Output(); len(out) != 1 || out[0] != 45 {
		t.Fatalf("output = %v", out)
	}
	if m.Instructions() == 0 {
		t.Fatal("no instructions counted")
	}
}

func TestAllOpcodes(t *testing.T) {
	// One block per opcode family, checked against Go semantics.
	cases := []struct {
		in   Instr
		pre  [4]int64
		want int64 // expected r0 afterwards
	}{
		{Instr{Op: OpConst, A: 0, Imm: -7}, [4]int64{}, -7},
		{Instr{Op: OpMov, A: 0, B: 1}, [4]int64{0, 42}, 42},
		{Instr{Op: OpAdd, A: 0, B: 1, C: 2}, [4]int64{0, 3, 4}, 7},
		{Instr{Op: OpSub, A: 0, B: 1, C: 2}, [4]int64{0, 3, 4}, -1},
		{Instr{Op: OpMul, A: 0, B: 1, C: 2}, [4]int64{0, -3, 4}, -12},
		{Instr{Op: OpDiv, A: 0, B: 1, C: 2}, [4]int64{0, -7, 2}, -3},
		{Instr{Op: OpMod, A: 0, B: 1, C: 2}, [4]int64{0, -7, 2}, -1},
		{Instr{Op: OpAnd, A: 0, B: 1, C: 2}, [4]int64{0, 0b1100, 0b1010}, 0b1000},
		{Instr{Op: OpOr, A: 0, B: 1, C: 2}, [4]int64{0, 0b1100, 0b1010}, 0b1110},
		{Instr{Op: OpXor, A: 0, B: 1, C: 2}, [4]int64{0, 0b1100, 0b1010}, 0b0110},
		{Instr{Op: OpShl, A: 0, B: 1, C: 2}, [4]int64{0, 3, 4}, 48},
		{Instr{Op: OpShr, A: 0, B: 1, C: 2}, [4]int64{0, -1, 60}, 15},
		{Instr{Op: OpNeg, A: 0, B: 1}, [4]int64{0, 5}, -5},
		{Instr{Op: OpNot, A: 0, B: 1}, [4]int64{0, 0}, -1},
		{Instr{Op: OpAddI, A: 0, B: 1, Imm: 100}, [4]int64{0, 5}, 105},
		{Instr{Op: OpMulI, A: 0, B: 1, Imm: -2}, [4]int64{0, 5}, -10},
	}
	for _, tc := range cases {
		main := &Proc{Name: "main", NumArgs: 4, NumRegs: 4}
		main.Blocks = []*Block{{
			Instr: []Instr{tc.in},
			Term:  Term{Kind: TermRet, Ret: 0},
		}}
		p := &Program{Procs: []*Proc{main}}
		p.RenumberBlocks()
		if err := p.Validate(); err != nil {
			t.Fatalf("%v: %v", tc.in, err)
		}
		rv, err := NewMachine(p, nil).Run(tc.pre[0], tc.pre[1], tc.pre[2], tc.pre[3])
		if err != nil {
			t.Fatalf("%v: %v", tc.in, err)
		}
		if rv != tc.want {
			t.Errorf("%v: got %d, want %d", tc.in, rv, tc.want)
		}
	}
}

func TestTraps(t *testing.T) {
	mk := func(in Instr, globals int) *Program {
		main := &Proc{Name: "main", NumArgs: 2, NumRegs: 3}
		main.Blocks = []*Block{{
			Instr: []Instr{in},
			Term:  Term{Kind: TermRet, Ret: 0},
		}}
		p := &Program{Procs: []*Proc{main}, GlobalWords: globals}
		p.RenumberBlocks()
		return p
	}
	if _, err := NewMachine(mk(Instr{Op: OpDiv, A: 0, B: 0, C: 1}, 0), nil).Run(1, 0); !errors.Is(err, ErrDivByZero) {
		t.Errorf("div by zero: %v", err)
	}
	if _, err := NewMachine(mk(Instr{Op: OpMod, A: 0, B: 0, C: 1}, 0), nil).Run(1, 0); !errors.Is(err, ErrDivByZero) {
		t.Errorf("mod by zero: %v", err)
	}
	if _, err := NewMachine(mk(Instr{Op: OpLoad, A: 0, B: 1, Imm: 100}, 10), nil).Run(0, 0); !errors.Is(err, ErrMemFault) {
		t.Errorf("load out of range: %v", err)
	}
	if _, err := NewMachine(mk(Instr{Op: OpStore, A: 0, B: 1, Imm: -1}, 10), nil).Run(0, 0); !errors.Is(err, ErrMemFault) {
		t.Errorf("store negative: %v", err)
	}
}

func TestInstrLimit(t *testing.T) {
	main := &Proc{Name: "main", NumArgs: 0, NumRegs: 1}
	main.Blocks = []*Block{{Term: Term{Kind: TermJump, Target: 0}}}
	p := &Program{Procs: []*Proc{main}}
	p.RenumberBlocks()
	m := NewMachine(p, nil)
	m.MaxInstrs = 1000
	if _, err := m.Run(); !errors.Is(err, ErrInstrLimit) {
		t.Fatalf("want instruction limit, got %v", err)
	}
}

func TestStackOverflow(t *testing.T) {
	// proc f() { f() }
	f := &Proc{Name: "f", NumArgs: 0, NumRegs: 1}
	f.Blocks = []*Block{{Term: Term{Kind: TermCall, Callee: 0, Next: 0}}}
	p := &Program{Procs: []*Proc{f}}
	p.RenumberBlocks()
	m := NewMachine(p, nil)
	m.MaxDepth = 100
	if _, err := m.Run(); !errors.Is(err, ErrStackOverflow) {
		t.Fatalf("want stack overflow, got %v", err)
	}
}

type countingObs struct {
	NopObserver
	blocks, calls, rets, branches, mems int
}

func (c *countingObs) OnBlock(*Block)        { c.blocks++ }
func (c *countingObs) OnCall(*Block, *Proc)  { c.calls++ }
func (c *countingObs) OnReturn(*Proc)        { c.rets++ }
func (c *countingObs) OnBranch(*Block, bool) { c.branches++ }
func (c *countingObs) OnMem(uint64, bool)    { c.mems++ }

func TestObserverEventCounts(t *testing.T) {
	p := buildProg(t)
	obs := &countingObs{}
	if _, err := NewMachine(p, obs).Run(5); err != nil {
		t.Fatal(err)
	}
	// blocks: b0, then (b1) 6 times, (b2) 5 times, b3 = 13.
	if obs.blocks != 13 {
		t.Errorf("blocks = %d, want 13", obs.blocks)
	}
	if obs.branches != 6 {
		t.Errorf("branches = %d, want 6", obs.branches)
	}
	if obs.rets != 1 {
		t.Errorf("returns = %d, want 1", obs.rets)
	}
}

// buildCallMemProg assembles a program that emits every event kind:
//
//	proc f(x):         mem[0] = x; ret mem[0]
//	proc main(n):      for i in 0..n-1 { r = f(i) }; ret r
func buildCallMemProg(t *testing.T) *Program {
	t.Helper()
	f := &Proc{Name: "f", NumArgs: 1, NumRegs: 2}
	f.Blocks = []*Block{{Instr: []Instr{
		{Op: OpStore, A: 0, B: 1},
		{Op: OpLoad, A: 1, B: 1},
	}, Term: Term{Kind: TermRet, Ret: 1}}}
	main := &Proc{Name: "main", NumArgs: 1, NumRegs: 3}
	// r0 = n, r1 = i, r2 = f's result
	main.Blocks = []*Block{
		{Instr: []Instr{{Op: OpConst, A: 1, Imm: 0}}, Term: Term{Kind: TermJump, Target: 1}},
		{Term: Term{Kind: TermBranch, Cond: CondLT, A: 1, B: 0, Target: 2, Else: 4}},
		{Term: Term{Kind: TermCall, Callee: 0, Args: []uint8{1}, Ret: 2, Next: 3}},
		{Instr: []Instr{{Op: OpAddI, A: 1, B: 1, Imm: 1}}, Term: Term{Kind: TermJump, Target: 1}},
		{Term: Term{Kind: TermRet, Ret: 2}},
	}
	p := &Program{Procs: []*Proc{f, main}, Entry: 1, GlobalWords: 1}
	f.ID, main.ID = 0, 1
	p.RenumberBlocks()
	if err := p.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	return p
}

// maskedObs counts only the events its mask declares.
type maskedObs struct {
	countingObs
	mask EventMask
}

func (o *maskedObs) ObservedEvents() EventMask { return o.mask }

// TestMachineDispatchesMaskedEvents pins the machine's one dispatch path:
// each event kind reaches the observer iff its EventMask (EvAll without
// EventMasker) includes the kind, and a nil observer receives nothing.
func TestMachineDispatchesMaskedEvents(t *testing.T) {
	p := buildCallMemProg(t)
	// main b0, three rounds of b1, b2, f, b3, then b1 and b4; three calls
	// returning plus main's own return; a store and a load per call.
	all := countingObs{blocks: 15, calls: 3, rets: 4, branches: 4, mems: 6}

	unmasked := &countingObs{}
	if _, err := NewMachine(p, unmasked).Run(3); err != nil {
		t.Fatal(err)
	}
	if *unmasked != all {
		t.Errorf("observer without EventMasker saw %+v, want %+v", *unmasked, all)
	}

	masked := &maskedObs{mask: EvBlock | EvMem}
	if _, err := NewMachine(p, masked).Run(3); err != nil {
		t.Fatal(err)
	}
	if want := (countingObs{blocks: all.blocks, mems: all.mems}); masked.countingObs != want {
		t.Errorf("EvBlock|EvMem observer saw %+v, want %+v", masked.countingObs, want)
	}

	m := NewMachine(p, nil)
	rv, err := m.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	if rv != 2 || m.Calls() != 3 || m.Branches() != 4 || m.MemRefs() != 6 {
		t.Errorf("nil observer: rv=%d calls=%d branches=%d mem=%d, want 2/3/4/6",
			rv, m.Calls(), m.Branches(), m.MemRefs())
	}
}

func TestCallsBalancedOnHalt(t *testing.T) {
	// main calls f; f halts. Observers must still see balanced returns.
	f := &Proc{Name: "f", NumArgs: 0, NumRegs: 1}
	f.Blocks = []*Block{{Term: Term{Kind: TermHalt}}}
	main := &Proc{Name: "main", NumArgs: 0, NumRegs: 1}
	main.Blocks = []*Block{{Term: Term{Kind: TermCall, Callee: 0, Next: 1}},
		{Term: Term{Kind: TermRet, Ret: 0}}}
	p := &Program{Procs: []*Proc{f, main}, Entry: 1}
	f.ID, main.ID = 0, 1
	p.RenumberBlocks()
	obs := &countingObs{}
	if _, err := NewMachine(p, obs).Run(); err != nil {
		t.Fatal(err)
	}
	if obs.calls != 1 || obs.rets != 2 { // f's frame + main's frame unwound
		t.Errorf("calls=%d rets=%d, want 1/2", obs.calls, obs.rets)
	}
}

// breakers each corrupt one structural property of buildProg's program.
var breakers = []func(p *Program){
	func(p *Program) { p.Entry = 5 },
	func(p *Program) { p.Procs[0].NumRegs = 0 },
	func(p *Program) { p.Procs[0].NumRegs = NumRegsMax + 1 },
	func(p *Program) { p.Procs[0].Blocks[0].Term.Target = 99 },
	func(p *Program) { p.Procs[0].Blocks[1].Term.Else = -1 },
	func(p *Program) { p.Procs[0].Blocks[2].Instr[0].A = 200 },
	func(p *Program) { p.Procs[0].Blocks = nil },
	func(p *Program) { p.Procs[0].Blocks[0].ID = 77 },
	func(p *Program) { p.NumBlocks = 1 },
	func(p *Program) { p.NumBlocks = -1 },
	func(p *Program) { p.Procs[0].Blocks[1].Term.Cond = CondGE + 4 },
}

func TestValidateCatchesCorruption(t *testing.T) {
	for i, breakIt := range breakers {
		p := buildProg(t)
		breakIt(p)
		if err := p.Validate(); err == nil {
			t.Errorf("breaker %d: validation passed on corrupt program", i)
		}
	}
}

// TestRunRefusesInvalidProgram pins the machine's one gate: Run indexes
// registers through an unchecked fixed window, so a program that fails
// validation must come back as ErrInvalidProgram, never as a panic or a
// run that reads or writes a neighbouring frame's registers. RunSplit
// keeps the same gate.
func TestRunRefusesInvalidProgram(t *testing.T) {
	refuse := func(name string, p *Program) {
		t.Helper()
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("%s: Run or RunSplit panicked: %v", name, r)
			}
		}()
		if rv, err := NewMachine(p, nil).Run(5); !errors.Is(err, ErrInvalidProgram) {
			t.Errorf("%s: Run = %d, %v; want ErrInvalidProgram", name, rv, err)
		}
		if _, err := RunSplit(p, &logObs{}, nil, 5); !errors.Is(err, ErrInvalidProgram) {
			t.Errorf("%s: RunSplit = %v; want ErrInvalidProgram", name, err)
		}
	}
	for i, breakIt := range breakers {
		p := buildProg(t)
		breakIt(p)
		refuse(fmt.Sprintf("breaker %d", i), p)
	}

	// main(n) calls f, whose r10 lies past its two registers: inside its
	// register window, outside its frame.
	f := &Proc{Name: "f", NumArgs: 0, NumRegs: 2}
	f.Blocks = []*Block{{
		Instr: []Instr{{Op: OpConst, A: 10, Imm: 99}},
		Term:  Term{Kind: TermRet, Ret: 0},
	}}
	main := &Proc{Name: "main", NumArgs: 1, NumRegs: 2}
	main.Blocks = []*Block{
		{Term: Term{Kind: TermCall, Callee: 0, Ret: 1, Next: 1}},
		{Term: Term{Kind: TermRet, Ret: 1}},
	}
	p := &Program{Procs: []*Proc{f, main}, Entry: 1}
	f.ID, main.ID = 0, 1
	p.RenumberBlocks()
	refuse("callee writes r10", p)
}

func TestDisasmMentionsEverything(t *testing.T) {
	p := buildProg(t)
	d := Print(p)
	for _, want := range []string{"proc main", "const", "add", "br", "jump", "ret", "out"} {
		if !strings.Contains(d, want) {
			t.Errorf("disassembly missing %q:\n%s", want, d)
		}
	}
}

func TestFindLoopsOnHandBuiltProgram(t *testing.T) {
	p := buildProg(t)
	loops := FindLoops(p)
	if len(loops.All) != 1 {
		t.Fatalf("found %d loops, want 1", len(loops.All))
	}
	l := loops.All[0]
	if l.Head.Index != 1 || l.End != 2 || l.Depth != 1 {
		t.Errorf("loop = %+v", l)
	}
	if !l.Contains(1) || !l.Contains(2) || l.Contains(0) || l.Contains(3) {
		t.Error("region containment wrong")
	}
}

type loopLog struct {
	events []string
}

func (l *loopLog) OnLoopEnter(lp *Loop)   { l.events = append(l.events, "enter") }
func (l *loopLog) OnLoopIterate(lp *Loop) { l.events = append(l.events, "iter") }
func (l *loopLog) OnLoopExit(lp *Loop)    { l.events = append(l.events, "exit") }

func TestLoopTrackerEventSequence(t *testing.T) {
	p := buildProg(t)
	log := &loopLog{}
	tracker := NewLoopTracker(FindLoops(p), log)
	if _, err := NewMachine(p, tracker).Run(3); err != nil {
		t.Fatal(err)
	}
	// Head executes 4 times (3 true + 1 false): enter, iter x3, exit.
	want := []string{"enter", "iter", "iter", "iter", "exit"}
	if len(log.events) != len(want) {
		t.Fatalf("events = %v", log.events)
	}
	for i := range want {
		if log.events[i] != want[i] {
			t.Fatalf("events = %v, want %v", log.events, want)
		}
	}
}

// buildCallLoopProg assembles a program whose main loops n times calling a
// helper, exercising the call/return register-arena path:
//
//	proc inc(x): return x + 1
//	proc main(n): acc = 0; for i in 0..n-1 { acc = inc(acc) }; ret acc
func buildCallLoopProg(t *testing.T) *Program {
	t.Helper()
	inc := &Proc{Name: "inc", NumArgs: 1, NumRegs: 2}
	inc.Blocks = []*Block{{
		Instr: []Instr{{Op: OpAddI, A: 1, B: 0, Imm: 1}},
		Term:  Term{Kind: TermRet, Ret: 1},
	}}
	main := &Proc{Name: "main", NumArgs: 1, NumRegs: 4}
	// r0 = n, r1 = i, r2 = acc
	b0 := &Block{Instr: []Instr{
		{Op: OpConst, A: 1, Imm: 0},
		{Op: OpConst, A: 2, Imm: 0},
	}, Term: Term{Kind: TermJump, Target: 1}}
	b1 := &Block{Term: Term{Kind: TermBranch, Cond: CondLT, A: 1, B: 0, Target: 2, Else: 3}}
	b2 := &Block{Instr: []Instr{{Op: OpAddI, A: 1, B: 1, Imm: 1}},
		Term: Term{Kind: TermCall, Callee: 0, Args: []uint8{2}, Ret: 2, Next: 1}}
	b3 := &Block{Term: Term{Kind: TermRet, Ret: 2}}
	main.Blocks = []*Block{b0, b1, b2, b3}
	p := &Program{Procs: []*Proc{inc, main}, Entry: 1}
	inc.ID, main.ID = 0, 1
	p.RenumberBlocks()
	if err := p.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	return p
}

// TestRunSteadyStateZeroAlloc pins the hot-path guarantee the benchmark
// suite's interp_dispatch stage measures: a warmed machine re-runs a
// program — calls and all — without a single heap allocation. Register
// windows come from the reused arena, frames from the reused stack, and
// Reset keeps every buffer.
func TestRunSteadyStateZeroAlloc(t *testing.T) {
	p := buildCallLoopProg(t)
	m := NewMachine(p, nil)
	if rv, err := m.Run(64); err != nil || rv != 64 {
		t.Fatalf("Run = %d, %v; want 64, nil", rv, err)
	}
	avg := testing.AllocsPerRun(50, func() {
		m.Reset()
		rv, err := m.Run(64)
		if err != nil || rv != 64 {
			t.Fatalf("Run = %d, %v; want 64, nil", rv, err)
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state Run allocates %.1f objects per run, want 0", avg)
	}
}

// TestResetClearsRunState verifies Reset returns the machine to a
// pre-Run state: memory zeroed, output truncated, counters cleared.
func TestResetClearsRunState(t *testing.T) {
	p := buildProg(t)
	m := NewMachine(p, nil)
	if _, err := m.Run(10); err != nil {
		t.Fatal(err)
	}
	if m.Instructions() == 0 || len(m.Output()) == 0 {
		t.Fatal("first run recorded nothing")
	}
	firstInstrs := m.Instructions()
	m.Reset()
	if m.Instructions() != 0 || m.Branches() != 0 || m.Calls() != 0 || m.MemRefs() != 0 {
		t.Fatal("Reset left counters nonzero")
	}
	if len(m.Output()) != 0 {
		t.Fatal("Reset left output")
	}
	for _, v := range m.Mem() {
		if v != 0 {
			t.Fatal("Reset left memory nonzero")
		}
	}
	if _, err := m.Run(10); err != nil {
		t.Fatal(err)
	}
	if m.Instructions() != firstInstrs {
		t.Fatalf("re-run counted %d instructions, want %d", m.Instructions(), firstInstrs)
	}
}
