package minivm

import "fmt"

// Validate checks structural well-formedness of the program: entry and
// block/register/procedure indices in range, argument counts consistent,
// branch conditions known, and terminators present. Compilers call it
// after codegen and after every optimization pass; NewMachine validates
// the program it is given, and Run refuses to execute one that fails.
func (p *Program) Validate() error {
	if p.Entry < 0 || p.Entry >= len(p.Procs) {
		return fmt.Errorf("entry proc index %d out of range", p.Entry)
	}
	if p.EntryProc() == nil {
		return fmt.Errorf("nil entry proc")
	}
	if p.GlobalWords < 0 {
		return fmt.Errorf("negative global memory size %d", p.GlobalWords)
	}
	if p.NumBlocks < 0 {
		return fmt.Errorf("negative block count %d", p.NumBlocks)
	}
	seen := make([]bool, p.NumBlocks)
	for pi, pr := range p.Procs {
		if pr == nil {
			return fmt.Errorf("proc %d is nil", pi)
		}
		if pr.ID != pi {
			return fmt.Errorf("proc %q: ID %d != index %d", pr.Name, pr.ID, pi)
		}
		if pr.NumRegs <= 0 || pr.NumRegs > NumRegsMax {
			return fmt.Errorf("proc %q: NumRegs %d out of range (1..%d)", pr.Name, pr.NumRegs, NumRegsMax)
		}
		if pr.NumArgs < 0 || pr.NumArgs > pr.NumRegs {
			return fmt.Errorf("proc %q: NumArgs %d out of range", pr.Name, pr.NumArgs)
		}
		if len(pr.Blocks) == 0 {
			return fmt.Errorf("proc %q: no blocks", pr.Name)
		}
		for bi, b := range pr.Blocks {
			if err := p.validateBlock(pr, bi, b, seen); err != nil {
				return err
			}
		}
	}
	return nil
}

// Check is Validate with a failure wrapped in ErrInvalidProgram, the
// error Run returns for the program. An analysis that sizes tables from
// the program's counts (NumBlocks, procedures) calls it before building
// them, so an invalid program is an error rather than a panic.
func (p *Program) Check() error {
	if err := p.Validate(); err != nil {
		return fmt.Errorf("%w: %w", ErrInvalidProgram, err)
	}
	return nil
}

// blockLoc names a block in validation errors. It formats only when an
// error is built, so validating a well-formed program does not allocate
// per block.
type blockLoc struct {
	proc  string
	block int
}

func (l blockLoc) String() string { return fmt.Sprintf("proc %q block %d", l.proc, l.block) }

func (p *Program) validateBlock(pr *Proc, bi int, b *Block, seen []bool) error {
	where := blockLoc{pr.Name, bi}
	if b == nil {
		return fmt.Errorf("%s: nil block", where)
	}
	if b.Index != bi {
		return fmt.Errorf("%s: Index %d != position %d", where, b.Index, bi)
	}
	if b.Proc != pr {
		return fmt.Errorf("%s: Proc back-pointer wrong", where)
	}
	if b.ID < 0 || b.ID >= p.NumBlocks {
		return fmt.Errorf("%s: global ID %d out of range [0,%d)", where, b.ID, p.NumBlocks)
	}
	if seen[b.ID] {
		return fmt.Errorf("%s: duplicate global block ID %d", where, b.ID)
	}
	seen[b.ID] = true
	reg := func(r uint8) error {
		if int(r) >= pr.NumRegs {
			return fmt.Errorf("%s: register r%d out of range (NumRegs=%d)", where, r, pr.NumRegs)
		}
		return nil
	}
	for ii, in := range b.Instr {
		if in.Op >= opMax {
			return fmt.Errorf("%s instr %d: bad opcode %d", where, ii, in.Op)
		}
		switch in.Op {
		case OpNop, OpMark:
		case OpConst:
			if err := reg(in.A); err != nil {
				return err
			}
		case OpMov, OpNeg, OpNot, OpAddI, OpMulI, OpLoad:
			if err := reg(in.A); err != nil {
				return err
			}
			if err := reg(in.B); err != nil {
				return err
			}
		case OpStore:
			if err := reg(in.A); err != nil {
				return err
			}
			if err := reg(in.B); err != nil {
				return err
			}
		case OpOut:
			if err := reg(in.A); err != nil {
				return err
			}
		default: // three-address arithmetic
			if err := reg(in.A); err != nil {
				return err
			}
			if err := reg(in.B); err != nil {
				return err
			}
			if err := reg(in.C); err != nil {
				return err
			}
		}
	}
	blk := func(idx int, what string) error {
		if idx < 0 || idx >= len(pr.Blocks) {
			return fmt.Errorf("%s: %s block index %d out of range", where, what, idx)
		}
		return nil
	}
	t := b.Term
	switch t.Kind {
	case TermJump:
		return blk(t.Target, "jump target")
	case TermBranch:
		if t.Cond > CondGE {
			return fmt.Errorf("%s: bad branch condition %d", where, t.Cond)
		}
		if err := reg(t.A); err != nil {
			return err
		}
		if err := reg(t.B); err != nil {
			return err
		}
		if err := blk(t.Target, "branch target"); err != nil {
			return err
		}
		return blk(t.Else, "branch else")
	case TermCall:
		if t.Callee < 0 || t.Callee >= len(p.Procs) {
			return fmt.Errorf("%s: call to bad proc index %d", where, t.Callee)
		}
		callee := p.Procs[t.Callee]
		if len(t.Args) != callee.NumArgs {
			return fmt.Errorf("%s: call to %q with %d args, want %d",
				where, callee.Name, len(t.Args), callee.NumArgs)
		}
		for _, a := range t.Args {
			if err := reg(a); err != nil {
				return err
			}
		}
		if err := reg(t.Ret); err != nil {
			return err
		}
		return blk(t.Next, "call continuation")
	case TermRet:
		return reg(t.Ret)
	case TermHalt:
		return nil
	default:
		return fmt.Errorf("%s: bad terminator kind %d", where, t.Kind)
	}
}
