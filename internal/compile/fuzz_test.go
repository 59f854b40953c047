package compile

import (
	"fmt"
	"strings"
	"testing"

	"phasemark/internal/minivm"
	"phasemark/internal/stats"
)

// progGen emits random but well-formed mini-language programs. The
// generator is careful to produce terminating programs (loops have bounded
// trip counts) with no division (so no data-dependent traps), making
// "same observable output in both compilation modes" a checkable property.
type progGen struct {
	r      *stats.RNG
	sb     strings.Builder
	vars   []string // in-scope scalar names
	arrays []string
	procs  []string // callable procedure names (already emitted)
	depth  int
}

func (g *progGen) pick(xs []string) string { return xs[g.r.Intn(len(xs))] }

func (g *progGen) expr(depth int) string {
	if depth <= 0 || g.r.Intn(3) == 0 {
		switch g.r.Intn(4) {
		case 0:
			return fmt.Sprintf("%d", g.r.Intn(200)-100)
		case 1:
			if len(g.vars) > 0 {
				return g.pick(g.vars)
			}
			return "7"
		case 2:
			if len(g.arrays) > 0 {
				return fmt.Sprintf("%s[(%s) & 63]", g.pick(g.arrays), g.expr(0))
			}
			return "11"
		default:
			if len(g.procs) > 0 && g.r.Intn(2) == 0 {
				return fmt.Sprintf("%s(%s)", g.pick(g.procs), g.expr(depth-1))
			}
			return fmt.Sprintf("%d", g.r.Intn(50))
		}
	}
	ops := []string{"+", "-", "*", "&", "|", "^", "<<", ">>",
		"<", "<=", ">", ">=", "==", "!=", "&&", "||"}
	op := ops[g.r.Intn(len(ops))]
	l, r := g.expr(depth-1), g.expr(depth-1)
	if op == "<<" || op == ">>" {
		r = fmt.Sprintf("((%s) & 7)", r)
	}
	if g.r.Intn(4) == 0 {
		return fmt.Sprintf("-(%s %s %s)", l, op, r)
	}
	return fmt.Sprintf("(%s %s %s)", l, op, r)
}

func (g *progGen) stmt(indent string, depth int) {
	switch g.r.Intn(8) {
	case 0:
		name := fmt.Sprintf("v%d", len(g.vars))
		fmt.Fprintf(&g.sb, "%svar %s = %s;\n", indent, name, g.expr(2))
		g.vars = append(g.vars, name)
	case 1:
		if len(g.vars) > 0 {
			fmt.Fprintf(&g.sb, "%s%s = %s;\n", indent, g.pick(g.vars), g.expr(2))
		}
	case 2:
		if len(g.arrays) > 0 {
			fmt.Fprintf(&g.sb, "%s%s[(%s) & 63] = %s;\n",
				indent, g.pick(g.arrays), g.expr(1), g.expr(2))
		}
	case 3:
		if depth > 0 {
			fmt.Fprintf(&g.sb, "%sif (%s) {\n", indent, g.expr(2))
			g.block(indent+"\t", depth-1)
			if g.r.Intn(2) == 0 {
				fmt.Fprintf(&g.sb, "%s} else {\n", indent)
				g.block(indent+"\t", depth-1)
			}
			fmt.Fprintf(&g.sb, "%s}\n", indent)
		}
	case 4:
		if depth > 0 {
			// Bounded loop: fresh counter, fixed trip count.
			c := fmt.Sprintf("i%d_%d", depth, g.r.Intn(1000))
			fmt.Fprintf(&g.sb, "%sfor (var %s = 0; %s < %d; %s = %s + 1) {\n",
				indent, c, c, g.r.Intn(6)+1, c, c)
			saved := g.vars
			g.vars = append(g.vars, c)
			g.block(indent+"\t", depth-1)
			g.vars = saved
			fmt.Fprintf(&g.sb, "%s}\n", indent)
		}
	case 5:
		fmt.Fprintf(&g.sb, "%sout(%s);\n", indent, g.expr(2))
	case 6:
		if len(g.procs) > 0 {
			fmt.Fprintf(&g.sb, "%s%s(%s);\n", indent, g.pick(g.procs), g.expr(1))
		}
	default:
		fmt.Fprintf(&g.sb, "%sout(%s);\n", indent, g.expr(1))
	}
}

func (g *progGen) block(indent string, depth int) {
	n := g.r.Intn(4) + 1
	saved := len(g.vars)
	for i := 0; i < n; i++ {
		g.stmt(indent, depth)
	}
	g.vars = g.vars[:saved]
}

func (g *progGen) generate() string {
	g.sb.WriteString("array arr0[64];\narray arr1[64];\nvar glob;\n")
	g.arrays = []string{"arr0", "arr1"}
	nprocs := g.r.Intn(3) + 1
	for p := 0; p < nprocs; p++ {
		name := fmt.Sprintf("p%d", p)
		fmt.Fprintf(&g.sb, "proc %s(a) {\n", name)
		g.vars = []string{"a"}
		g.block("\t", 2)
		fmt.Fprintf(&g.sb, "\treturn %s;\n}\n", g.expr(2))
		g.procs = append(g.procs, name)
	}
	g.sb.WriteString("proc main(a) {\n")
	g.vars = []string{"a"}
	g.block("\t", 3)
	fmt.Fprintf(&g.sb, "\treturn %s;\n}\n", g.expr(2))
	return g.sb.String()
}

// allOptions is every Options combination: either backend, with or
// without the optimizer and the inliner.
func allOptions() []Options {
	var opts []Options
	for bits := 0; bits < 8; bits++ {
		opts = append(opts, Options{Optimize: bits&1 != 0, Inline: bits&2 != 0, Stack: bits&4 != 0})
	}
	return opts
}

// TestOptimizerEquivalenceFuzz compiles hundreds of random programs in
// both modes and checks they produce identical observable behavior
// (return value and out() stream) while the optimizer never increases
// dynamic instruction count. Every program, at every Options
// combination, must also have the loop shape static marker detection
// needs (minivm.Loops.Check).
func TestOptimizerEquivalenceFuzz(t *testing.T) {
	trials := 300
	if testing.Short() {
		trials = 50
	}
	for seed := 0; seed < trials; seed++ {
		g := &progGen{r: stats.NewRNG(uint64(seed)*2654435761 + 1)}
		src := g.generate()
		opts := allOptions()
		progs := make([]*minivm.Program, len(opts))
		for i, o := range opts {
			p, err := CompileSource(src, o)
			if err != nil {
				t.Fatalf("seed %d %+v: compile failed: %v\nsource:\n%s", seed, o, err, src)
			}
			if err := minivm.FindLoops(p).Check(); err != nil {
				t.Fatalf("seed %d %+v: %v\nsource:\n%s", seed, o, err, src)
			}
			progs[i] = p
		}
		p0, p1 := progs[0], progs[1] // -O0 and optimized, in allOptions' order
		for _, arg := range []int64{0, 1, -3, 17} {
			m0 := minivm.NewMachine(p0, nil)
			m0.MaxInstrs = 5_000_000
			rv0, err0 := m0.Run(arg)
			m1 := minivm.NewMachine(p1, nil)
			m1.MaxInstrs = 5_000_000
			rv1, err1 := m1.Run(arg)
			if (err0 == nil) != (err1 == nil) {
				t.Fatalf("seed %d arg %d: error mismatch %v vs %v\nsource:\n%s",
					seed, arg, err0, err1, src)
			}
			if err0 != nil {
				continue // both trapped identically (e.g. shift-derived fault)
			}
			if rv0 != rv1 {
				t.Fatalf("seed %d arg %d: return %d vs %d\nsource:\n%s",
					seed, arg, rv0, rv1, src)
			}
			o0, o1 := m0.Output(), m1.Output()
			if len(o0) != len(o1) {
				t.Fatalf("seed %d arg %d: output lengths %d vs %d\nsource:\n%s",
					seed, arg, len(o0), len(o1), src)
			}
			for i := range o0 {
				if o0[i] != o1[i] {
					t.Fatalf("seed %d arg %d: out[%d] %d vs %d\nsource:\n%s",
						seed, arg, i, o0[i], o1[i], src)
				}
			}
			if m1.Instructions() > m0.Instructions() {
				t.Fatalf("seed %d arg %d: optimizer increased instructions %d -> %d\nsource:\n%s",
					seed, arg, m0.Instructions(), m1.Instructions(), src)
			}
		}
	}
}

// TestWalkerBalancedOnFuzzedPrograms reuses the generator to hammer the
// profiling walker: every random program must produce a balanced call-loop
// traversal stream in both compilation modes.
func TestLoopStructurePreservedByOptimizer(t *testing.T) {
	trials := 100
	if testing.Short() {
		trials = 20
	}
	for seed := 0; seed < trials; seed++ {
		g := &progGen{r: stats.NewRNG(uint64(seed)*97 + 13)}
		src := g.generate()
		p1, err := CompileSource(src, Options{Optimize: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Every back edge must still target a block at or before itself,
		// and loop regions must nest properly (FindLoops would panic or
		// produce inverted regions otherwise).
		loops := minivm.FindLoops(p1)
		for _, l := range loops.All {
			if l.End < l.Head.Index {
				t.Fatalf("seed %d: inverted loop region %v", seed, l)
			}
			if l.Parent != nil && (l.Head.Index < l.Parent.Head.Index || l.End > l.Parent.End) {
				t.Fatalf("seed %d: loop %v escapes parent %v", seed, l, l.Parent)
			}
		}
	}
}
