package minivm

import (
	"fmt"
	"strings"
)

// String renders the instruction in assembly form.
func (in Instr) String() string {
	switch in.Op {
	case OpNop:
		return "nop"
	case OpConst:
		return fmt.Sprintf("const r%d, %d", in.A, in.Imm)
	case OpMov:
		return fmt.Sprintf("mov r%d, r%d", in.A, in.B)
	case OpNeg, OpNot:
		return fmt.Sprintf("%s r%d, r%d", in.Op, in.A, in.B)
	case OpAddI, OpMulI:
		return fmt.Sprintf("%s r%d, r%d, %d", in.Op, in.A, in.B, in.Imm)
	case OpLoad:
		return fmt.Sprintf("load r%d, [r%d+%d]", in.A, in.B, in.Imm)
	case OpStore:
		return fmt.Sprintf("store [r%d+%d], r%d", in.B, in.Imm, in.A)
	case OpOut:
		return fmt.Sprintf("out r%d", in.A)
	case OpMark:
		return fmt.Sprintf("mark %d", in.Imm)
	default:
		return fmt.Sprintf("%s r%d, r%d, r%d", in.Op, in.A, in.B, in.C)
	}
}

// String renders the terminator in assembly form.
func (t Term) String() string {
	switch t.Kind {
	case TermJump:
		return fmt.Sprintf("jump b%d", t.Target)
	case TermBranch:
		return fmt.Sprintf("br r%d %s r%d, b%d, b%d", t.A, t.Cond, t.B, t.Target, t.Else)
	case TermCall:
		args := make([]string, len(t.Args))
		for i, a := range t.Args {
			args[i] = fmt.Sprintf("r%d", a)
		}
		return fmt.Sprintf("call r%d, p%d(%s), b%d", t.Ret, t.Callee, strings.Join(args, ", "), t.Next)
	case TermRet:
		return fmt.Sprintf("ret r%d", t.Ret)
	default:
		return "halt"
	}
}
