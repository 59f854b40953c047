package compile

import (
	"phasemark/internal/lang"
	"phasemark/internal/minivm"
)

// The register backend: every local gets its own named register for the
// whole procedure, and expressions evaluate in a register tree whose
// interior values live in temporaries, allocated last-in first-out above
// the named registers.

type procGen struct {
	lowerer
	named    int // named registers allocated so far
	namedCap int // total named registers (pre-pass count)
	tempTop  int
	tempMax  int
}

func (c *compiler) genProc(idx int, pd *lang.ProcDecl) (*minivm.Proc, error) {
	g := &procGen{namedCap: len(pd.Params) + countVars(pd.Body)}
	g.lowerer = lowerer{c: c, isa: g,
		proc: &minivm.Proc{Name: pd.Name, ID: idx, NumArgs: len(pd.Params), Line: pd.Pos.Line}}
	if g.namedCap+8 > minivm.NumRegsMax {
		return nil, errAt(pd.Pos, "procedure %q has too many variables (%d)", pd.Name, g.namedCap)
	}
	g.enter(pd)
	if err := g.finish(pd); err != nil {
		return nil, err
	}
	g.proc.NumRegs = max(g.namedCap+g.tempMax, 1)
	return g.proc, nil
}

func countVars(s lang.Stmt) int {
	n := 0
	var walk func(lang.Stmt)
	walk = func(s lang.Stmt) {
		switch st := s.(type) {
		case *lang.BlockStmt:
			for _, x := range st.Stmts {
				walk(x)
			}
		case *lang.VarStmt:
			n++
		case *lang.IfStmt:
			walk(st.Then)
			if st.Else != nil {
				walk(st.Else)
			}
		case *lang.WhileStmt:
			walk(st.Body)
		case *lang.ForStmt:
			if st.Init != nil {
				walk(st.Init)
			}
			if st.Post != nil {
				walk(st.Post)
			}
			walk(st.Body)
		}
	}
	walk(s)
	return n
}

func (g *procGen) newLocal() int {
	if g.named >= g.namedCap {
		g.fail(g.pos, "internal: register pre-pass undercounted in %q", g.proc.Name)
	}
	g.named++
	return g.named - 1
}

func (g *procGen) setLocal(home int, e lang.Expr) { g.into(e, uint8(home)) }

func (g *procGen) value(e lang.Expr) uint8 {
	r := g.temp()
	g.into(e, r)
	return r
}

func (g *procGen) operands(l, r lang.Expr) (a, b uint8) {
	a, b = g.temp(), g.temp()
	g.genExpr(l, a)
	g.into(r, b)
	return a, b
}

func (g *procGen) release(n int) { g.tempTop -= n }

// into evaluates e into register dest; a nil e is zero.
func (g *procGen) into(e lang.Expr, dest uint8) {
	if e == nil {
		g.emit(minivm.Instr{Op: minivm.OpConst, A: dest, Imm: 0})
		return
	}
	g.genExpr(e, dest)
}

func (g *procGen) temp() uint8 {
	r := g.namedCap + g.tempTop
	g.tempTop++
	if g.tempTop > g.tempMax {
		g.tempMax = g.tempTop
	}
	if r >= minivm.NumRegsMax {
		g.fail(g.pos, "expression too complex (out of registers)")
		return minivm.NumRegsMax - 1
	}
	return uint8(r)
}

// genExpr evaluates e into register dest.
func (g *procGen) genExpr(e lang.Expr, dest uint8) {
	if g.err != nil {
		return
	}
	if isBoolExpr(e) {
		g.genBoolValue(e, func(v int64) {
			g.emit(minivm.Instr{Op: minivm.OpConst, A: dest, Imm: v})
		})
		return
	}
	switch x := e.(type) {
	case *lang.NumberExpr:
		g.emit(minivm.Instr{Op: minivm.OpConst, A: dest, Imm: x.Val})
	case *lang.IdentExpr:
		if home, ok := g.lookup(x.Name); ok {
			if r := uint8(home); r != dest {
				g.emit(minivm.Instr{Op: minivm.OpMov, A: dest, B: r})
			}
			return
		}
		addr, ok := g.scalarGlobal(x.Name, x.Pos, "used")
		if !ok {
			return
		}
		t := g.temp()
		g.emit(minivm.Instr{Op: minivm.OpConst, A: t, Imm: 0})
		g.emit(minivm.Instr{Op: minivm.OpLoad, A: dest, B: t, Imm: addr})
		g.release(1)
	case *lang.IndexExpr:
		addr, ok := g.arrayGlobal(x.Name, x.Pos)
		if !ok {
			return
		}
		t := g.temp()
		g.genExpr(x.Index, t)
		g.emit(minivm.Instr{Op: minivm.OpLoad, A: dest, B: t, Imm: addr})
		g.release(1)
	case *lang.CallExpr:
		g.genCall(x, dest)
	case *lang.UnaryExpr:
		switch x.Op {
		case lang.Minus:
			t := g.temp()
			g.genExpr(x.X, t)
			g.emit(minivm.Instr{Op: minivm.OpNeg, A: dest, B: t})
			g.release(1)
		case lang.Tilde:
			t := g.temp()
			g.genExpr(x.X, t)
			g.emit(minivm.Instr{Op: minivm.OpNot, A: dest, B: t})
			g.release(1)
		default:
			g.fail(x.Pos, "internal: bad unary op %s", x.Op)
		}
	case *lang.BinaryExpr:
		op, ok := arithOps[x.Op]
		if !ok {
			g.fail(x.Pos, "internal: bad binary op %s", x.Op)
			return
		}
		t1, t2 := g.operands(x.L, x.R)
		g.emit(minivm.Instr{Op: op, A: dest, B: t1, C: t2})
		g.release(2)
	default:
		g.fail(e.ExprPos(), "internal: unknown expression %T", e)
	}
}

func (g *procGen) genCall(x *lang.CallExpr, dest uint8) {
	idx, ok := g.callee(x)
	if !ok {
		return
	}
	args := make([]uint8, len(x.Args))
	for i, a := range x.Args {
		t := g.temp()
		g.genExpr(a, t)
		args[i] = t
	}
	g.call(x, idx, args, dest)
	g.release(len(x.Args))
}
