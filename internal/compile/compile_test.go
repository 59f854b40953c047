package compile

import (
	"strings"
	"testing"

	"phasemark/internal/minivm"
)

func run(t *testing.T, src string, opt bool, args ...int64) (int64, []int64) {
	t.Helper()
	prog, err := CompileSource(src, Options{Optimize: opt})
	if err != nil {
		t.Fatalf("compile (opt=%v): %v", opt, err)
	}
	m := minivm.NewMachine(prog, nil)
	rv, err := m.Run(args...)
	if err != nil {
		t.Fatalf("run (opt=%v): %v", opt, err)
	}
	return rv, m.Output()
}

func runBoth(t *testing.T, src string, args ...int64) (int64, []int64) {
	t.Helper()
	rv0, out0 := run(t, src, false, args...)
	rv1, out1 := run(t, src, true, args...)
	if rv0 != rv1 {
		t.Fatalf("return value differs: -O0=%d opt=%d", rv0, rv1)
	}
	if len(out0) != len(out1) {
		t.Fatalf("output length differs: -O0=%d opt=%d", len(out0), len(out1))
	}
	for i := range out0 {
		if out0[i] != out1[i] {
			t.Fatalf("output[%d] differs: -O0=%d opt=%d", i, out0[i], out1[i])
		}
	}
	return rv0, out0
}

func TestArithmetic(t *testing.T) {
	rv, _ := runBoth(t, `
proc main(a, b) {
	return (a + b) * (a - b) + a % b - a / b;
}`, 17, 5)
	want := int64((17+5)*(17-5) + 17%5 - 17/5)
	if rv != want {
		t.Fatalf("got %d, want %d", rv, want)
	}
}

func TestWhileLoopSum(t *testing.T) {
	rv, _ := runBoth(t, `
proc main(n) {
	var s = 0;
	var i = 0;
	while (i < n) {
		s = s + i;
		i = i + 1;
	}
	return s;
}`, 100)
	if rv != 4950 {
		t.Fatalf("got %d, want 4950", rv)
	}
}

func TestForLoopAndBreakContinue(t *testing.T) {
	rv, _ := runBoth(t, `
proc main(n) {
	var s = 0;
	for (var i = 0; i < n; i = i + 1) {
		if (i % 2 == 0) { continue; }
		if (i > 50) { break; }
		s = s + i;
	}
	return s;
}`, 100)
	// Sum of odd numbers 1..49 = 625, plus loop breaks at 51.
	if rv != 625 {
		t.Fatalf("got %d, want 625", rv)
	}
}

func TestNestedLoopsAndArrays(t *testing.T) {
	rv, out := runBoth(t, `
array m[64];
proc main(n) {
	for (var i = 0; i < n; i = i + 1) {
		for (var j = 0; j < n; j = j + 1) {
			m[i*n+j] = i * j;
		}
	}
	var s = 0;
	for (var k = 0; k < n*n; k = k + 1) {
		s = s + m[k];
	}
	out(s);
	return s;
}`, 8)
	want := int64(28 * 28) // (sum 0..7)^2
	if rv != want || len(out) != 1 || out[0] != want {
		t.Fatalf("got rv=%d out=%v, want %d", rv, out, want)
	}
}

func TestRecursionFibonacci(t *testing.T) {
	rv, _ := runBoth(t, `
proc fib(n) {
	if (n < 2) { return n; }
	return fib(n-1) + fib(n-2);
}
proc main(n) { return fib(n); }`, 15)
	if rv != 610 {
		t.Fatalf("fib(15)=%d, want 610", rv)
	}
}

func TestShortCircuit(t *testing.T) {
	// boom() would trap with div-by-zero; short-circuit must avoid it.
	rv, _ := runBoth(t, `
var calls;
proc boom() {
	calls = calls + 1;
	return 1 / 0;
}
proc main(a) {
	if (a > 10 || boom() > 0) { }
	if (a < 5 && boom() > 0) { }
	if (!(a == 99)) { return 1; }
	return 0;
}`, 42)
	if rv != 1 {
		t.Fatalf("got %d, want 1", rv)
	}
}

func TestGlobalsAndBitOps(t *testing.T) {
	rv, _ := runBoth(t, `
var g;
proc main(x) {
	g = x;
	g = (g << 3) ^ (g >> 1) | 5 & g;
	return g + ~x + -x;
}`, 12345)
	x := int64(12345)
	g := (x << 3) ^ int64(uint64(x)>>1) | 5&x
	want := g + ^x + -x
	if rv != want {
		t.Fatalf("got %d, want %d", rv, want)
	}
}

func TestOutStreamOrder(t *testing.T) {
	_, out := runBoth(t, `
proc emit(k) { out(k); return 0; }
proc main(n) {
	for (var i = 0; i < n; i = i + 1) {
		if (i % 3 == 0) { emit(i * 100); } else { out(i); }
	}
	return 0;
}`, 10)
	want := []int64{0, 1, 2, 300, 4, 5, 600, 7, 8, 900}
	if len(out) != len(want) {
		t.Fatalf("out=%v", out)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("out[%d]=%d want %d", i, out[i], want[i])
		}
	}
}

func TestOptimizerReducesInstructions(t *testing.T) {
	src := `
proc main(n) {
	var a = 2 + 3 * 4;
	var b = a * 1 + 0;
	var unused = b * 77;
	out(b);
	return n + b - b;
}`
	p0, err := CompileSource(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p1, err := CompileSource(src, Options{Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	c0, c1 := staticInstrs(p0), staticInstrs(p1)
	if c1 >= c0 {
		t.Fatalf("optimizer did not shrink program: -O0=%d opt=%d", c0, c1)
	}
}

func staticInstrs(p *minivm.Program) int {
	n := 0
	for _, pr := range p.Procs {
		for _, b := range pr.Blocks {
			n += b.Weight()
		}
	}
	return n
}

func TestCompileErrors(t *testing.T) {
	cases := []struct {
		name, src string
	}{
		{"no main", `proc f() { return 0; }`},
		{"undefined var", `proc main() { return x; }`},
		{"undefined proc", `proc main() { return f(); }`},
		{"bad arity", `proc f(a) { return a; } proc main() { return f(); }`},
		{"array without index", `array a[4]; proc main() { return a; }`},
		{"scalar with index", `var v; proc main() { return v[0]; }`},
		{"break outside loop", `proc main() { break; return 0; }`},
		{"continue outside loop", `proc main() { continue; return 0; }`},
		{"duplicate proc", `proc main() { return 0; } proc main() { return 1; }`},
		{"duplicate global", `var g; var g; proc main() { return 0; }`},
		{"duplicate local", `proc main() { var x; var x; return 0; }`},
		{"assign to array name", `array a[4]; proc main() { a = 3; return 0; }`},
		{"undefined assign target", `proc main() { y = 1; return 0; }`},
		{"indexed store to scalar", `var v; proc main() { v[0] = 1; return 0; }`},
		{"duplicate parameter", `proc main(a, a) { return a; }`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, regErr := CompileSource(tc.src, Options{})
			_, stkErr := CompileSource(tc.src, Options{Stack: true})
			if regErr == nil || stkErr == nil {
				t.Fatalf("expected an error from both backends, got register %v, stack %v", regErr, stkErr)
			}
			if regErr.Error() != stkErr.Error() {
				t.Fatalf("backends disagree:\nregister %v\nstack    %v", regErr, stkErr)
			}
		})
	}
}

// TestStackBackendRefusesCallingMain pins the one source program the two
// backends treat differently: the stack backend's main materializes its
// own frame pointer, so it cannot be called.
func TestStackBackendRefusesCallingMain(t *testing.T) {
	src := `proc f(n) { if (n > 0) { return main(n - 1); } return 0; } proc main(n) { return f(n); }`
	if _, err := CompileSource(src, Options{}); err != nil {
		t.Fatalf("register backend: %v", err)
	}
	_, err := CompileSource(src, Options{Stack: true})
	if err == nil || !strings.Contains(err.Error(), "does not support calling main") {
		t.Fatalf("stack backend: got %v, want a refusal to call main", err)
	}
}

func TestBackwardsBranchesFormLoops(t *testing.T) {
	for _, opt := range []bool{false, true} {
		prog, err := CompileSource(`
proc main(n) {
	var s = 0;
	for (var i = 0; i < n; i = i + 1) {
		for (var j = 0; j < n; j = j + 1) {
			s = s + 1;
		}
	}
	while (s > 0) { s = s - 2; }
	return s;
}`, Options{Optimize: opt})
		if err != nil {
			t.Fatal(err)
		}
		loops := minivm.FindLoops(prog)
		if len(loops.All) != 3 {
			t.Fatalf("opt=%v: found %d loops, want 3", opt, len(loops.All))
		}
		depth2 := 0
		for _, l := range loops.All {
			if l.Depth == 2 {
				depth2++
			}
		}
		if depth2 != 1 {
			t.Fatalf("opt=%v: want exactly one depth-2 loop, got %d", opt, depth2)
		}
	}
}
