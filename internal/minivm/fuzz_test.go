package minivm

import (
	"errors"
	"strings"
	"testing"
)

// FuzzParseAsm checks the assembly round trip: any text ParseAsm accepts
// must print back to a fixed point (Print(Parse(Print(p))) == Print(p)),
// and the reparsed program must re-validate and execute: Run, which
// indexes registers without bounds checks, must return a value or a
// runtime error, never panic. Rejected inputs must fail with an error,
// never a panic — ParseAsm consumes checked-in artifacts and hand-edited
// dumps, both attacker-ish inputs.
func FuzzParseAsm(f *testing.F) {
	seed := &Proc{Name: "main", NumArgs: 1, NumRegs: 3}
	seed.Blocks = []*Block{
		{Instr: []Instr{
			{Op: OpConst, A: 1, Imm: 41},
			{Op: OpAdd, A: 2, B: 0, C: 1},
			{Op: OpOut, A: 2},
		}, Term: Term{Kind: TermRet, Ret: 2}},
	}
	p := &Program{Procs: []*Proc{seed}, Entry: 0, GlobalWords: 8}
	p.RenumberBlocks()
	if err := p.Validate(); err != nil {
		f.Fatal(err)
	}
	f.Add(Print(p))
	f.Add("program entry=main globals=0\n")
	f.Add("proc main args=0 regs=1 {\n")

	f.Fuzz(func(t *testing.T, src string) {
		prog, err := ParseAsm(src)
		if err != nil {
			return // rejected cleanly
		}
		text := Print(prog)
		back, err := ParseAsm(text)
		if err != nil {
			t.Fatalf("accepted program fails to reparse: %v\n%s", err, text)
		}
		if again := Print(back); again != text {
			i := 0
			for i < len(text) && i < len(again) && text[i] == again[i] {
				i++
			}
			lo := i - 40
			if lo < 0 {
				lo = 0
			}
			t.Fatalf("round trip not a fixed point near byte %d:\nfirst:  ...%s\nsecond: ...%s",
				i, snippet(text, lo), snippet(again, lo))
		}
		if err := back.Validate(); err != nil {
			t.Fatalf("reparsed program fails validation: %v", err)
		}
		if back.GlobalWords > 1<<16 {
			return // only bounds the fuzzer's memory
		}
		m := NewMachine(back, nil)
		m.MaxInstrs, m.MaxDepth = 1<<16, 64
		switch _, err := m.Run(make([]int64, back.EntryProc().NumArgs)...); {
		case err == nil, errors.Is(err, ErrDivByZero), errors.Is(err, ErrMemFault),
			errors.Is(err, ErrStackOverflow), errors.Is(err, ErrInstrLimit):
		default:
			t.Fatalf("accepted program fails to run: %v\n%s", err, text)
		}
	})
}

func snippet(s string, lo int) string {
	hi := lo + 80
	if hi > len(s) {
		hi = len(s)
	}
	return strings.ReplaceAll(s[lo:hi], "\n", "\\n")
}
