package compile

import (
	"phasemark/internal/lang"
	"phasemark/internal/minivm"
)

// The stack backend: a second "instruction set architecture" for the same
// source language. Where the register backend keeps locals in registers
// and evaluates expressions in a register tree, the stack backend keeps
// every local in a memory frame and evaluates expressions through an
// in-memory operand stack — the dynamic instruction mix, block weights,
// and data traffic all change the way they would across a RISC→CISC port.
//
// This is what makes the paper's §6.2.1 cross-ISA claim testable here:
// markers selected on the register binary map through source positions to
// the stack binary (loops and call sites exist in both, at the same
// lines) and must produce identical firing traces on the same input.
//
// Conventions:
//   - memory layout: user globals at [0, G), then a stack region of
//     StackWords words;
//   - every non-entry procedure takes one argument, FP, the base of its
//     memory frame; the caller writes the user arguments into the
//     callee's first frame slots;
//   - frame layout: parameters and locals at FP+0.., then the operand
//     stack;
//   - the entry procedure materializes FP = G (bottom of the stack
//     region) itself, keeping main's external signature unchanged.

// StackWords is the size of the stack-backend's frame region. Deep
// recursion beyond it faults, which is exactly a stack overflow.
const StackWords = 1 << 16

type stackGen struct {
	lowerer

	// Register plan: main's user args in r0..rn-1, FP next, then fixed
	// scratch.
	fp    uint8
	rA    uint8 // primary scratch (pop destination / results)
	rB    uint8 // secondary scratch
	rAddr uint8 // address scratch

	maxSlots int // frame slots the locals need
	depth    int // operand-stack depth
	maxDepth int
	frameFix []struct{ blk, idx int } // instrs whose Imm = frame size
}

func (c *compiler) genStackProc(idx int, pd *lang.ProcDecl) (*minivm.Proc, error) {
	g := &stackGen{}
	g.lowerer = lowerer{c: c, isa: g, proc: &minivm.Proc{Name: pd.Name, ID: idx, Line: pd.Pos.Line}}
	isEntry := idx == c.entry
	if isEntry {
		// main keeps its external signature; FP is materialized locally.
		g.proc.NumArgs = len(pd.Params)
		g.fp = uint8(len(pd.Params))
	} else {
		// Every other procedure receives only FP; its user arguments are
		// already in its frame slots, written there by the caller.
		g.proc.NumArgs = 1
		g.fp = 0
	}
	g.rA = g.fp + 1
	g.rB = g.fp + 2
	g.rAddr = g.fp + 3
	g.proc.NumRegs = int(g.rAddr) + 1
	if g.proc.NumRegs > minivm.NumRegsMax {
		return nil, errAt(pd.Pos, "procedure %q has too many parameters for the stack backend", pd.Name)
	}

	// The parameters take frame slots 0..n-1.
	g.enter(pd)
	if isEntry {
		g.emit(minivm.Instr{Op: minivm.OpConst, A: g.fp, Imm: int64(c.globalWords)})
		for i := range pd.Params {
			g.emit(minivm.Instr{Op: minivm.OpStore, A: uint8(i), B: g.fp, Imm: int64(i)})
		}
	}
	if err := g.finish(pd); err != nil {
		return nil, err
	}
	// Patch frame-size immediates now that the frame extent is known.
	if g.maxSlots > slotBase {
		return nil, errAt(pd.Pos, "procedure %q has too many locals for the stack backend", pd.Name)
	}
	for _, ff := range g.frameFix {
		g.proc.Blocks[ff.blk].Instr[ff.idx].Imm = int64(slotBase + g.maxDepth)
	}
	return g.proc, nil
}

// newLocal gives a local the first frame slot no visible local holds:
// slots are reused once their scope closes.
func (g *stackGen) newLocal() int {
	slot := 0
	for _, s := range g.scopes {
		slot += len(s)
	}
	g.maxSlots = max(g.maxSlots, slot+1)
	return slot
}

func (g *stackGen) setLocal(slot int, e lang.Expr) {
	r := g.value(e)
	g.emit(minivm.Instr{Op: minivm.OpStore, A: r, B: g.fp, Imm: int64(slot)})
}

func (g *stackGen) value(e lang.Expr) uint8 {
	if e == nil {
		g.emit(minivm.Instr{Op: minivm.OpConst, A: g.rA, Imm: 0})
	} else {
		g.genExpr(e)
		g.popTo(g.rA)
	}
	return g.rA
}

func (g *stackGen) operands(l, r lang.Expr) (a, b uint8) {
	if r == nil {
		g.value(l)
		g.emit(minivm.Instr{Op: minivm.OpConst, A: g.rB, Imm: 0})
		return g.rA, g.rB
	}
	g.genExpr(l)
	g.genExpr(r)
	g.popTo(g.rB)
	g.popTo(g.rA)
	return g.rA, g.rB
}

// release has nothing to free: popping the values already did.
func (g *stackGen) release(int) {}

// Operand-stack primitives. The stack occupies frame words
// [maxSlots, maxSlots+depth); since maxSlots grows during generation,
// stack offsets are made relative to a generous fixed base: locals never
// exceed maxSlots, so the operand stack starts at slotBase = 64 (checked).
const slotBase = 64

// pushFrom stores register r onto the operand stack.
func (g *stackGen) pushFrom(r uint8) {
	g.emit(minivm.Instr{Op: minivm.OpStore, A: r, B: g.fp, Imm: int64(slotBase + g.depth)})
	g.depth++
	if g.depth > g.maxDepth {
		g.maxDepth = g.depth
	}
}

// popTo loads the operand-stack top into register r.
func (g *stackGen) popTo(r uint8) {
	g.depth--
	g.emit(minivm.Instr{Op: minivm.OpLoad, A: r, B: g.fp, Imm: int64(slotBase + g.depth)})
}

// genExpr evaluates e, leaving exactly one value on the operand stack.
func (g *stackGen) genExpr(e lang.Expr) {
	if g.err != nil {
		return
	}
	if isBoolExpr(e) {
		// Both arms push one value; track depth once.
		depth := g.depth
		g.genBoolValue(e, func(v int64) {
			g.depth = depth
			g.emit(minivm.Instr{Op: minivm.OpConst, A: g.rA, Imm: v})
			g.pushFrom(g.rA)
		})
		return
	}
	switch x := e.(type) {
	case *lang.NumberExpr:
		g.emit(minivm.Instr{Op: minivm.OpConst, A: g.rA, Imm: x.Val})
		g.pushFrom(g.rA)
	case *lang.IdentExpr:
		if slot, ok := g.lookup(x.Name); ok {
			g.emit(minivm.Instr{Op: minivm.OpLoad, A: g.rA, B: g.fp, Imm: int64(slot)})
			g.pushFrom(g.rA)
			return
		}
		addr, ok := g.scalarGlobal(x.Name, x.Pos, "used")
		if !ok {
			return
		}
		g.emit(minivm.Instr{Op: minivm.OpConst, A: g.rB, Imm: 0})
		g.emit(minivm.Instr{Op: minivm.OpLoad, A: g.rA, B: g.rB, Imm: addr})
		g.pushFrom(g.rA)
	case *lang.IndexExpr:
		addr, ok := g.arrayGlobal(x.Name, x.Pos)
		if !ok {
			return
		}
		g.genExpr(x.Index)
		g.popTo(g.rB)
		g.emit(minivm.Instr{Op: minivm.OpLoad, A: g.rA, B: g.rB, Imm: addr})
		g.pushFrom(g.rA)
	case *lang.CallExpr:
		g.genCall(x)
	case *lang.UnaryExpr:
		switch x.Op {
		case lang.Minus, lang.Tilde:
			op := minivm.OpNeg
			if x.Op == lang.Tilde {
				op = minivm.OpNot
			}
			g.genExpr(x.X)
			g.popTo(g.rA)
			g.emit(minivm.Instr{Op: op, A: g.rA, B: g.rA})
			g.pushFrom(g.rA)
		default:
			g.fail(x.Pos, "internal: bad unary op %s", x.Op)
		}
	case *lang.BinaryExpr:
		op, ok := arithOps[x.Op]
		if !ok {
			g.fail(x.Pos, "internal: bad binary op %s", x.Op)
			return
		}
		g.operands(x.L, x.R)
		g.emit(minivm.Instr{Op: op, A: g.rA, B: g.rA, C: g.rB})
		g.pushFrom(g.rA)
	default:
		g.fail(e.ExprPos(), "internal: unknown expression %T", e)
	}
}

func (g *stackGen) genCall(x *lang.CallExpr) {
	if x.Name == "main" {
		g.fail(x.Pos, "the stack backend does not support calling main")
		return
	}
	idx, ok := g.callee(x)
	if !ok {
		return
	}
	// Evaluate arguments onto our operand stack, then compute the callee
	// frame pointer and spill them into the callee's parameter slots.
	for _, a := range x.Args {
		g.genExpr(a)
	}
	g.emit(minivm.Instr{Op: minivm.OpAddI, A: g.rAddr, B: g.fp, Imm: 0 /* frame size */})
	g.frameFix = append(g.frameFix, struct{ blk, idx int }{g.cur.Index, len(g.cur.Instr) - 1})
	for i := len(x.Args) - 1; i >= 0; i-- {
		g.popTo(g.rA)
		g.emit(minivm.Instr{Op: minivm.OpStore, A: g.rA, B: g.rAddr, Imm: int64(i)})
	}
	g.call(x, idx, []uint8{g.rAddr}, g.rA)
	g.pushFrom(g.rA)
}
