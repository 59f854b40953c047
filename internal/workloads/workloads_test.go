package workloads

import (
	"testing"

	"phasemark/internal/compile"
	"phasemark/internal/core"
	"phasemark/internal/lang"
	"phasemark/internal/minivm"
)

func runProg(t *testing.T, p *minivm.Program, args []int64) (*minivm.Machine, []int64) {
	t.Helper()
	m := minivm.NewMachine(p, nil)
	if _, err := m.Run(args...); err != nil {
		t.Fatalf("run: %v", err)
	}
	return m, m.Output()
}

func TestAllWorkloadsRunAndAgreeAcrossModes(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			p0, err := w.Compile(false)
			if err != nil {
				t.Fatalf("compile -O0: %v", err)
			}
			p1, err := w.Compile(true)
			if err != nil {
				t.Fatalf("compile opt: %v", err)
			}
			for _, in := range [][]int64{w.Train, w.Ref} {
				m0, out0 := runProg(t, p0, in)
				m1, out1 := runProg(t, p1, in)
				if len(out0) == 0 {
					t.Fatal("workload produced no output checksum")
				}
				if len(out0) != len(out1) {
					t.Fatalf("output lengths differ across modes")
				}
				for i := range out0 {
					if out0[i] != out1[i] {
						t.Fatalf("checksum differs across modes: %d vs %d", out0[i], out1[i])
					}
				}
				if m1.Instructions() >= m0.Instructions() {
					t.Errorf("optimizer did not reduce dynamic instructions: %d -> %d",
						m0.Instructions(), m1.Instructions())
				}
			}
			t.Logf("train=%d ref=%d instrs (-O0)", instrs(t, p0, w.Train), instrs(t, p0, w.Ref))
		})
	}
}

func instrs(t *testing.T, p *minivm.Program, args []int64) uint64 {
	m, _ := runProg(t, p, args)
	return m.Instructions()
}

func TestSuitesPartition(t *testing.T) {
	if got := len(Suite79()); got != 11 {
		t.Errorf("Suite79 has %d programs, want 11", got)
	}
	if got := len(Suite10()); got != 5 {
		t.Errorf("Suite10 has %d programs, want 5", got)
	}
	if got := len(All()); got != 16 {
		t.Errorf("All has %d programs, want 16", got)
	}
}

func TestDeterminism(t *testing.T) {
	w, err := ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	p := w.MustCompile(true)
	_, out1 := runProg(t, p, w.Train)
	_, out2 := runProg(t, p, w.Train)
	for i := range out1 {
		if out1[i] != out2[i] {
			t.Fatal("nondeterministic workload output")
		}
	}
}

// Every compiled workload must round-trip through the clasm text format.
func TestWorkloadsAsmRoundTrip(t *testing.T) {
	for _, w := range All() {
		for _, opt := range []bool{false, true} {
			p := w.MustCompile(opt)
			text := minivm.Print(p)
			back, err := minivm.ParseAsm(text)
			if err != nil {
				t.Fatalf("%s opt=%v: %v", w.Name, opt, err)
			}
			if minivm.Print(back) != text {
				t.Fatalf("%s opt=%v: round trip not a fixed point", w.Name, opt)
			}
			m1 := minivm.NewMachine(p, nil)
			m2 := minivm.NewMachine(back, nil)
			if _, err := m1.Run(w.Train...); err != nil {
				t.Fatal(err)
			}
			if _, err := m2.Run(w.Train...); err != nil {
				t.Fatal(err)
			}
			o1, o2 := m1.Output(), m2.Output()
			if len(o1) != len(o2) || o1[0] != o2[0] {
				t.Fatalf("%s opt=%v: behavior changed after round trip", w.Name, opt)
			}
		}
	}
}

// Physically instrumented binaries must fire the same phase-boundary
// sequence as the walker-based detector, for every workload.
func TestInstrumentationMatchesDetectorOnAllWorkloads(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			prog := w.MustCompile(false)
			g, err := core.ProfileRun(prog, w.Train...)
			if err != nil {
				t.Fatal(err)
			}
			set := core.SelectMarkers(g, core.SelectOptions{ILower: 100_000})
			if len(set.Markers) == 0 {
				t.Skip("no markers at this ilower")
			}
			var want []int
			det, err := core.NewDetector(prog, nil, set, func(marker int, at uint64) {
				want = append(want, marker)
			})
			if err != nil {
				t.Fatal(err)
			}
			m := minivm.NewMachine(prog, det)
			if _, err := m.Run(w.Train...); err != nil {
				t.Fatal(err)
			}
			inst, err := core.Instrument(prog, set)
			if err != nil {
				t.Fatal(err)
			}
			var got []int
			h := core.NewMarkHandler(set, func(marker int) { got = append(got, marker) })
			m2 := minivm.NewMachine(inst, nil)
			m2.MarkFunc = h.Fn
			if _, err := m2.Run(w.Train...); err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%d instrumented fires vs %d detector fires", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("firing %d differs: mark %d vs detector %d", i, got[i], want[i])
				}
			}
		})
	}
}

// The stack-machine backend must agree with the register backend on every
// workload (the cross-ISA experiments depend on it).
func TestStackBackendAgreesOnAllWorkloads(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			f, err := lang.Parse(w.Source)
			if err != nil {
				t.Fatal(err)
			}
			stackProg, err := compile.Compile(f, compile.Options{Stack: true})
			if err != nil {
				t.Fatal(err)
			}
			reg := w.MustCompile(false)
			mR, outR := runProg(t, reg, w.Train)
			mS, outS := runProg(t, stackProg, w.Train)
			if len(outR) != len(outS) || outR[0] != outS[0] {
				t.Fatalf("checksums differ: %v vs %v", outR, outS)
			}
			if mS.Instructions() <= mR.Instructions() {
				t.Errorf("stack ISA should execute more instructions: %d vs %d",
					mS.Instructions(), mR.Instructions())
			}
		})
	}
}

// TestLoopsRegularInEveryBuild: every build the experiments use has the
// loop shape static marker detection needs (minivm.Loops.Check), so
// core.NewDetector accepts all of them.
func TestLoopsRegularInEveryBuild(t *testing.T) {
	builds := []compile.Options{
		{},
		{Optimize: true},
		{Optimize: true, Inline: true},
		{Stack: true},
		{Stack: true, Optimize: true},
	}
	for _, w := range All() {
		for _, o := range builds {
			p, err := compile.CompileSource(w.Source, o)
			if err != nil {
				t.Fatalf("%s %+v: %v", w.Name, o, err)
			}
			if err := minivm.FindLoops(p).Check(); err != nil {
				t.Errorf("%s %+v: %v", w.Name, o, err)
			}
		}
	}
}
