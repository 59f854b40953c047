// Package compile lowers the mini language AST to minivm IR.
//
// It provides two compilation modes: a direct translation ("-O0") and an
// optimizing build (constant folding, copy propagation, dead-code
// elimination, jump threading, block merging). The two modes produce
// observably equivalent programs (identical out() streams) with different
// basic-block structure — which is exactly what the paper's cross-binary
// phase-marker experiment (§6.2.1) needs. Source line/column positions are
// propagated onto every IR block as debug info for marker mapping.
//
// Two backends share one lowering of control flow (this file): blocks,
// labels, loops, short-circuit conditions, calls and scopes are generated
// once, so loops and call sites sit at the same source positions in both
// instruction sets. Each backend supplies only its value model through
// the isa interface: registers and temporaries (codegen.go) or frame slots
// and an operand stack (stackgen.go).
package compile

import (
	"fmt"

	"phasemark/internal/lang"
	"phasemark/internal/minivm"
)

// Options selects the compilation mode.
type Options struct {
	// Optimize enables the optimization pipeline (see opt.go). The
	// unoptimized build corresponds to the paper's "-O0 Alpha binary"; the
	// optimized one to its "full peak optimization" binary.
	Optimize bool
	// Inline additionally expands small leaf procedures at their call
	// sites and deletes the ones with no remaining callers (see
	// inline.go). Markers anchored on inlined-away call edges cannot be
	// mapped to such a binary — the "compiled away" case of §6.2.1.
	Inline bool
	// Stack selects the stack-machine backend (see stackgen.go): a second
	// "ISA" for the same source, with locals in memory frames and
	// expressions evaluated through an in-memory operand stack. Used by
	// the cross-ISA marker-mapping experiments.
	Stack bool
}

// Compile lowers a parsed file into an executable program. The entry
// procedure is the one named "main".
func Compile(f *lang.File, opts Options) (*minivm.Program, error) {
	c := &compiler{
		file:    f,
		globals: map[string]globalSym{},
		procIdx: map[string]int{},
		entry:   -1,
	}
	if err := c.layoutGlobals(); err != nil {
		return nil, err
	}
	prog := &minivm.Program{GlobalWords: c.globalWords}
	genProc := c.genProc
	if opts.Stack {
		prog.GlobalWords += StackWords
		genProc = c.genStackProc
	}
	for i, pd := range f.Procs {
		if _, dup := c.procIdx[pd.Name]; dup {
			return nil, errAt(pd.Pos, "duplicate procedure %q", pd.Name)
		}
		c.procIdx[pd.Name] = i
		if pd.Name == "main" {
			c.entry = i
		}
	}
	if c.entry < 0 {
		return nil, fmt.Errorf("compile: no main procedure")
	}
	prog.Entry = c.entry
	for i, pd := range f.Procs {
		pr, err := genProc(i, pd)
		if err != nil {
			return nil, err
		}
		prog.Procs = append(prog.Procs, pr)
	}
	prog.RenumberBlocks()
	if opts.Optimize {
		Optimize(prog)
	}
	if opts.Inline {
		Inline(prog)
		Optimize(prog) // clean up argument moves and folded bodies
	}
	if err := prog.Validate(); err != nil {
		return nil, fmt.Errorf("compile: internal error: %w", err)
	}
	return prog, nil
}

// CompileSource parses and compiles in one step.
func CompileSource(src string, opts Options) (*minivm.Program, error) {
	f, err := lang.Parse(src)
	if err != nil {
		return nil, err
	}
	return Compile(f, opts)
}

func errAt(pos lang.Pos, format string, args ...any) error {
	return &lang.Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

type globalSym struct {
	addr  int64
	array bool
}

type compiler struct {
	file        *lang.File
	globals     map[string]globalSym
	globalWords int
	procIdx     map[string]int
	entry       int
}

func (c *compiler) layoutGlobals() error {
	var addr int64
	for _, g := range c.file.Globals {
		if _, dup := c.globals[g.Name]; dup {
			return errAt(g.Pos, "duplicate global %q", g.Name)
		}
		c.globals[g.Name] = globalSym{addr: addr, array: g.Array}
		addr += g.Size
	}
	const maxWords = 1 << 28 // 2 GiB of simulated memory
	if addr > maxWords {
		return fmt.Errorf("compile: globals need %d words, max %d", addr, maxWords)
	}
	c.globalWords = int(addr)
	return nil
}

var arithOps = map[lang.Kind]minivm.Opcode{
	lang.Plus:    minivm.OpAdd,
	lang.Minus:   minivm.OpSub,
	lang.Star:    minivm.OpMul,
	lang.Slash:   minivm.OpDiv,
	lang.Percent: minivm.OpMod,
	lang.Amp:     minivm.OpAnd,
	lang.Pipe:    minivm.OpOr,
	lang.Caret:   minivm.OpXor,
	lang.Shl:     minivm.OpShl,
	lang.Shr:     minivm.OpShr,
}

var compareOps = map[lang.Kind]minivm.CondOp{
	lang.EqEq:  minivm.CondEQ,
	lang.NotEq: minivm.CondNE,
	lang.Lt:    minivm.CondLT,
	lang.Le:    minivm.CondLE,
	lang.Gt:    minivm.CondGT,
	lang.Ge:    minivm.CondGE,
}

func isBoolExpr(e lang.Expr) bool {
	switch x := e.(type) {
	case *lang.BinaryExpr:
		if _, ok := compareOps[x.Op]; ok {
			return true
		}
		return x.Op == lang.AndAnd || x.Op == lang.OrOr
	case *lang.UnaryExpr:
		return x.Op == lang.Bang
	}
	return false
}

// isa is a backend's value model: where a local lives and how a value
// reaches a register. Every method may emit into the current block. A nil
// expression stands for the constant zero.
type isa interface {
	// newLocal returns the home of a local being declared: a register or
	// a frame slot.
	newLocal() int
	// setLocal evaluates e into the local at home.
	setLocal(home int, e lang.Expr)
	// value evaluates e into a register that holds until release(1).
	value(e lang.Expr) uint8
	// operands evaluates l, then r, into two registers that hold until
	// release(2).
	operands(l, r lang.Expr) (a, b uint8)
	// release frees the registers of the last n values.
	release(n int)
}

// label is a forward-patchable block reference.
type label struct {
	blk   int
	bound bool
}

type fixup struct {
	lbl  *label
	slot *int
}

type loopCtx struct {
	brk  *label
	cont *label
}

// lowerer generates one procedure's blocks and control flow; the backend
// that embeds it supplies values through isa.
type lowerer struct {
	c      *compiler
	isa    isa
	proc   *minivm.Proc
	cur    *minivm.Block
	scopes []map[string]int // local name -> home, innermost scope last
	fixups []fixup
	loops  []loopCtx
	pos    lang.Pos // current statement position for new blocks
	err    error
}

// enter opens the procedure's outermost scope, declares its parameters
// there and starts its entry block.
func (l *lowerer) enter(pd *lang.ProcDecl) {
	l.pos = pd.Pos
	l.pushScope()
	for _, p := range pd.Params {
		l.declare(p, pd.Pos)
	}
	l.newBlock(pd.Pos)
}

// finish lowers the body after whatever the backend emitted into the
// entry block, ends it with the implicit `return 0`, and resolves every
// jump.
func (l *lowerer) finish(pd *lang.ProcDecl) error {
	l.genBlockStmt(pd.Body)
	if l.err != nil {
		return l.err
	}
	l.ret(nil)
	for _, fx := range l.fixups {
		if !fx.lbl.bound {
			return errAt(pd.Pos, "internal: unbound label in %q", pd.Name)
		}
		*fx.slot = fx.lbl.blk
	}
	return nil
}

func (l *lowerer) fail(pos lang.Pos, format string, args ...any) {
	if l.err == nil {
		l.err = errAt(pos, format, args...)
	}
}

func (l *lowerer) pushScope() { l.scopes = append(l.scopes, map[string]int{}) }
func (l *lowerer) popScope()  { l.scopes = l.scopes[:len(l.scopes)-1] }

// declare gives name a new home in the innermost scope.
func (l *lowerer) declare(name string, pos lang.Pos) (int, bool) {
	top := l.scopes[len(l.scopes)-1]
	if _, dup := top[name]; dup {
		l.fail(pos, "duplicate variable %q", name)
		return 0, false
	}
	home := l.isa.newLocal()
	top[name] = home
	return home, true
}

// lookup resolves name to a local's home; ok is false if it is not a
// local (it may still be a global).
func (l *lowerer) lookup(name string) (int, bool) {
	for i := len(l.scopes) - 1; i >= 0; i-- {
		if home, ok := l.scopes[i][name]; ok {
			return home, true
		}
	}
	return 0, false
}

// scalarGlobal returns the address of the global scalar name, which the
// source has "used" or "assigned" (verb) at pos.
func (l *lowerer) scalarGlobal(name string, pos lang.Pos, verb string) (int64, bool) {
	sym, ok := l.c.globals[name]
	if !ok {
		l.fail(pos, "undefined variable %q", name)
		return 0, false
	}
	if sym.array {
		l.fail(pos, "array %q %s without index", name, verb)
		return 0, false
	}
	return sym.addr, true
}

// arrayGlobal returns the base address of the global array name.
func (l *lowerer) arrayGlobal(name string, pos lang.Pos) (int64, bool) {
	sym, ok := l.c.globals[name]
	if !ok || !sym.array {
		l.fail(pos, "%q is not a global array", name)
		return 0, false
	}
	return sym.addr, true
}

// callee resolves the procedure x calls and checks its arity.
func (l *lowerer) callee(x *lang.CallExpr) (int, bool) {
	idx, ok := l.c.procIdx[x.Name]
	if !ok {
		l.fail(x.Pos, "undefined procedure %q", x.Name)
		return 0, false
	}
	if want := len(l.c.file.Procs[idx].Params); len(x.Args) != want {
		l.fail(x.Pos, "procedure %q wants %d args, got %d", x.Name, want, len(x.Args))
		return 0, false
	}
	return idx, true
}

// call ends the current block with the call x to procedure idx; execution
// resumes in a fresh continuation block. The call site is thus a distinct
// markable instruction identified by the block it terminates.
func (l *lowerer) call(x *lang.CallExpr, idx int, args []uint8, ret uint8) {
	blk := l.cur
	blk.Term = minivm.Term{
		Kind:   minivm.TermCall,
		Callee: idx,
		Args:   args,
		Ret:    ret,
		Line:   x.Pos.Line,
		Col:    x.Pos.Col,
	}
	blk.Term.Next = l.newBlock(x.Pos).Index
}

func (l *lowerer) emit(in minivm.Instr) {
	l.cur.Instr = append(l.cur.Instr, in)
}

// newBlock appends a fresh current block (without terminating the previous
// one — callers terminate explicitly).
func (l *lowerer) newBlock(pos lang.Pos) *minivm.Block {
	b := &minivm.Block{
		Index: len(l.proc.Blocks),
		Proc:  l.proc,
		Line:  pos.Line,
		Col:   pos.Col,
	}
	l.proc.Blocks = append(l.proc.Blocks, b)
	l.cur = b
	return b
}

func (l *lowerer) newLabel() *label { return &label{} }

func (l *lowerer) bind(lb *label, pos lang.Pos) {
	b := l.newBlock(pos)
	lb.blk = b.Index
	lb.bound = true
}

// jumpTo terminates the current block with a jump to lb.
func (l *lowerer) jumpTo(lb *label) {
	l.cur.Term = minivm.Term{Kind: minivm.TermJump}
	l.fixups = append(l.fixups, fixup{lbl: lb, slot: &l.cur.Term.Target})
}

// branchTo terminates the current block with a conditional branch on
// le <cond> re, where a nil re compares against zero.
func (l *lowerer) branchTo(cond minivm.CondOp, le, re lang.Expr, t, f *label) {
	a, b := l.isa.operands(le, re)
	l.cur.Term = minivm.Term{Kind: minivm.TermBranch, Cond: cond, A: a, B: b}
	l.fixups = append(l.fixups, fixup{lbl: t, slot: &l.cur.Term.Target})
	l.fixups = append(l.fixups, fixup{lbl: f, slot: &l.cur.Term.Else})
	l.isa.release(2)
}

// ret terminates the current block with a return of e.
func (l *lowerer) ret(e lang.Expr) {
	r := l.isa.value(e)
	l.cur.Term = minivm.Term{Kind: minivm.TermRet, Ret: r}
	l.isa.release(1)
}

func (l *lowerer) genBlockStmt(b *lang.BlockStmt) {
	l.pushScope()
	for _, s := range b.Stmts {
		if l.err != nil {
			break
		}
		l.genStmt(s)
	}
	l.popScope()
}

func (l *lowerer) genStmt(s lang.Stmt) {
	l.pos = s.StmtPos()
	switch st := s.(type) {
	case *lang.BlockStmt:
		l.genBlockStmt(st)
	case *lang.VarStmt:
		if home, ok := l.declare(st.Name, st.Pos); ok {
			l.isa.setLocal(home, st.Init)
		}
	case *lang.AssignStmt:
		l.genAssign(st)
	case *lang.IfStmt:
		l.genIf(st)
	case *lang.WhileStmt:
		l.genWhile(st)
	case *lang.ForStmt:
		l.genFor(st)
	case *lang.ReturnStmt:
		l.ret(st.Value)
		l.newBlock(st.Pos) // unreachable continuation
	case *lang.BreakStmt:
		if len(l.loops) == 0 {
			l.fail(st.Pos, "break outside loop")
			return
		}
		l.jumpTo(l.loops[len(l.loops)-1].brk)
		l.newBlock(st.Pos)
	case *lang.ContinueStmt:
		if len(l.loops) == 0 {
			l.fail(st.Pos, "continue outside loop")
			return
		}
		l.jumpTo(l.loops[len(l.loops)-1].cont)
		l.newBlock(st.Pos)
	case *lang.ExprStmt:
		l.isa.value(st.X)
		l.isa.release(1)
	case *lang.OutStmt:
		r := l.isa.value(st.X)
		l.emit(minivm.Instr{Op: minivm.OpOut, A: r})
		l.isa.release(1)
	default:
		l.fail(s.StmtPos(), "internal: unknown statement %T", s)
	}
}

func (l *lowerer) genAssign(st *lang.AssignStmt) {
	var addr int64
	var ok bool
	if st.Index == nil {
		if home, local := l.lookup(st.Name); local {
			l.isa.setLocal(home, st.Value)
			return
		}
		addr, ok = l.scalarGlobal(st.Name, st.Pos, "assigned")
	} else {
		addr, ok = l.arrayGlobal(st.Name, st.Pos)
	}
	if !ok {
		return
	}
	v, idx := l.isa.operands(st.Value, st.Index)
	l.emit(minivm.Instr{Op: minivm.OpStore, A: v, B: idx, Imm: addr})
	l.isa.release(2)
}

func (l *lowerer) genIf(st *lang.IfStmt) {
	tl, fl, join := l.newLabel(), l.newLabel(), l.newLabel()
	l.genCond(st.Cond, tl, fl)
	l.bind(tl, st.Then.Pos)
	l.genBlockStmt(st.Then)
	l.jumpTo(join)
	if st.Else != nil {
		l.bind(fl, st.Else.StmtPos())
		l.genStmt(st.Else)
		l.jumpTo(join)
		l.bind(join, st.Pos)
	} else {
		// fl and join are the same continuation.
		l.bind(join, st.Pos)
		fl.blk, fl.bound = join.blk, true
	}
}

func (l *lowerer) genWhile(st *lang.WhileStmt) {
	header, body, exit := l.newLabel(), l.newLabel(), l.newLabel()
	l.jumpTo(header)
	l.bind(header, st.Pos) // loop head: cond evaluated here each iteration
	l.genCond(st.Cond, body, exit)
	l.bind(body, st.Body.Pos)
	l.loops = append(l.loops, loopCtx{brk: exit, cont: header})
	l.genBlockStmt(st.Body)
	l.loops = l.loops[:len(l.loops)-1]
	l.jumpTo(header) // the backwards branch (latch)
	l.bind(exit, st.Pos)
}

func (l *lowerer) genFor(st *lang.ForStmt) {
	l.pushScope() // for-clause variables scope over the loop
	if st.Init != nil {
		l.genStmt(st.Init)
	}
	header, body, post, exit := l.newLabel(), l.newLabel(), l.newLabel(), l.newLabel()
	l.jumpTo(header)
	l.bind(header, st.Pos)
	if st.Cond != nil {
		l.genCond(st.Cond, body, exit)
	} else {
		l.jumpTo(body)
	}
	l.bind(body, st.Body.Pos)
	l.loops = append(l.loops, loopCtx{brk: exit, cont: post})
	l.genBlockStmt(st.Body)
	l.loops = l.loops[:len(l.loops)-1]
	l.jumpTo(post)
	l.bind(post, st.Pos)
	if st.Post != nil {
		l.genStmt(st.Post)
	}
	l.jumpTo(header) // backwards branch
	l.bind(exit, st.Pos)
	l.popScope()
}

// genBoolValue materializes a boolean expression as 0/1 using the
// standard jumping-code pattern; set emits the code giving the expression
// the value v on one arm.
func (l *lowerer) genBoolValue(e lang.Expr, set func(v int64)) {
	tl, fl, join := l.newLabel(), l.newLabel(), l.newLabel()
	l.genCond(e, tl, fl)
	pos := e.ExprPos()
	l.bind(tl, pos)
	set(1)
	l.jumpTo(join)
	l.bind(fl, pos)
	set(0)
	l.jumpTo(join)
	l.bind(join, pos)
}

// genCond emits jumping code: evaluate e and transfer to tl if truthy,
// fl otherwise. Short-circuits && and ||.
func (l *lowerer) genCond(e lang.Expr, tl, fl *label) {
	if l.err != nil {
		return
	}
	switch x := e.(type) {
	case *lang.BinaryExpr:
		if cond, ok := compareOps[x.Op]; ok {
			l.branchTo(cond, x.L, x.R, tl, fl)
			return
		}
		switch x.Op {
		case lang.AndAnd:
			mid := l.newLabel()
			l.genCond(x.L, mid, fl)
			l.bind(mid, x.R.ExprPos())
			l.genCond(x.R, tl, fl)
			return
		case lang.OrOr:
			mid := l.newLabel()
			l.genCond(x.L, tl, mid)
			l.bind(mid, x.R.ExprPos())
			l.genCond(x.R, tl, fl)
			return
		}
	case *lang.UnaryExpr:
		if x.Op == lang.Bang {
			l.genCond(x.X, fl, tl)
			return
		}
	}
	// Generic: compare value against zero.
	l.branchTo(minivm.CondNE, e, nil, tl, fl)
}
