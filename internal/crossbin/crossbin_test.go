package crossbin

import (
	"slices"
	"testing"

	"phasemark/internal/compile"
	"phasemark/internal/core"
	"phasemark/internal/lang"
	"phasemark/internal/minivm"
)

const src = `
array data[8192];
proc work(n, k) {
	var s = 0;
	for (var i = 0; i < n; i = i + 1) {
		s = s + data[(i * k) & 8191];
	}
	return s;
}
proc cool(n) {
	var s = 1 + 2 + 3; // folds away under optimization
	for (var i = 0; i < n; i = i + 1) { s = s + i; }
	return s;
}
proc main(reps, n) {
	var s = 0;
	for (var r = 0; r < reps; r = r + 1) {
		s = s + work(n, 7);
		s = s + cool(n);
		s = s + work(n / 2, 3);
	}
	out(s);
	return s;
}
`

func compileBoth(t *testing.T) (plain, opt *minivmProgram) {
	t.Helper()
	f, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	p0, err := compile.Compile(f, compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	f2, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := compile.Compile(f2, compile.Options{Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	return &minivmProgram{p0}, &minivmProgram{p1}
}

func markers(t *testing.T, p *minivmProgram) *core.MarkerSet {
	t.Helper()
	g, err := core.ProfileRun(p.Program, 6, 30_000)
	if err != nil {
		t.Fatal(err)
	}
	set := core.SelectMarkers(g, core.SelectOptions{ILower: 50_000})
	if len(set.Markers) == 0 {
		t.Fatal("no markers selected")
	}
	return set
}

func TestMapMarkersFullyMaps(t *testing.T) {
	plain, opt := compileBoth(t)
	set := markers(t, plain)
	mapped, rep := MapMarkers(set, plain.Program, opt.Program)
	if len(rep.Unmapped) != 0 {
		t.Fatalf("unmapped markers: %v", rep.Unmapped)
	}
	if rep.Mapped != len(set.Markers) || len(mapped.Markers) != len(set.Markers) {
		t.Fatalf("mapped %d of %d", rep.Mapped, len(set.Markers))
	}
	// Mapped keys must reference valid anchors in the target binary.
	for _, m := range mapped.Markers {
		if opt.blockByID(m.Key.Site) == nil {
			t.Fatalf("marker %v anchors at missing block %d", m.Key, m.Key.Site)
		}
	}
}

func TestTracesIdenticalAcrossCompilations(t *testing.T) {
	plain, opt := compileBoth(t)
	set := markers(t, plain)
	mapped, rep := MapMarkers(set, plain.Program, opt.Program)
	if len(rep.Unmapped) != 0 {
		t.Fatalf("unmapped: %v", rep.Unmapped)
	}
	// Same input on both binaries: identical firing sequences (§6.2.1).
	for _, args := range [][]int64{{6, 30_000}, {3, 12_000}} {
		t0, err := Trace(plain.Program, set, args...)
		if err != nil {
			t.Fatal(err)
		}
		t1, err := Trace(opt.Program, mapped, args...)
		if err != nil {
			t.Fatal(err)
		}
		if len(t0) == 0 {
			t.Fatal("no firings")
		}
		if !slices.Equal(t0, t1) {
			t.Fatalf("traces differ on args %v:\n%v\n%v", args, t0, t1)
		}
	}
}

func TestMapMarkersRoundTrip(t *testing.T) {
	plain, opt := compileBoth(t)
	set := markers(t, plain)
	there, _ := MapMarkers(set, plain.Program, opt.Program)
	back, rep := MapMarkers(there, opt.Program, plain.Program)
	if len(rep.Unmapped) != 0 {
		t.Fatalf("round trip lost markers: %v", rep.Unmapped)
	}
	if len(back.Markers) != len(set.Markers) {
		t.Fatalf("round trip count %d != %d", len(back.Markers), len(set.Markers))
	}
	for i := range set.Markers {
		if back.Markers[i].Key != set.Markers[i].Key {
			t.Fatalf("marker %d did not round-trip: %v vs %v",
				i, back.Markers[i].Key, set.Markers[i].Key)
		}
	}
}

// minivmProgram wraps a program with a block-lookup helper for tests.
type minivmProgram struct {
	*minivm.Program
}

func (p *minivmProgram) blockByID(id int) *minivm.Block { return p.Program.BlockByID(id) }

// inlineSrc has a tiny leaf procedure that inlining removes entirely: a
// marker anchored on its call edge has no equivalent location in the
// inlined binary and must be reported unmapped ("compiled away", §6.2.1).
const inlineSrc = `
array data[4096];
proc tiny(x) {
	var s = 0;
	for (var i = 0; i < 300; i = i + 1) { s = s + i + x; }
	return s;
}
proc heavy(n) {
	var s = 0;
	for (var i = 0; i < n; i = i + 1) {
		s = s + data[(i * 11) & 4095] + (s >> 2) - i;
		data[(i + 5) & 4095] = s & 2047;
		s = s ^ (data[(i + 9) & 4095] << 1);
	}
	return s;
}
proc main(reps, n) {
	var s = 0;
	for (var r = 0; r < reps; r = r + 1) {
		s = s + heavy(n);
		for (var j = 0; j < 40; j = j + 1) { s = s + tiny(j); }
	}
	out(s);
	return s;
}
`

func TestMarkersCompiledAwayByInlining(t *testing.T) {
	f, err := lang.Parse(inlineSrc)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := compile.Compile(f, compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	f2, _ := lang.Parse(inlineSrc)
	inlined, err := compile.Compile(f2, compile.Options{Optimize: true, Inline: true})
	if err != nil {
		t.Fatal(err)
	}
	if inlined.Proc("tiny") != nil {
		t.Fatal("test premise broken: tiny survived inlining")
	}
	g, err := core.ProfileRun(plain, 6, 8000)
	if err != nil {
		t.Fatal(err)
	}
	// Low ilower so the tiny call edges qualify as markers too.
	set := core.SelectMarkers(g, core.SelectOptions{ILower: 1000})
	hasTinyMarker := false
	for _, m := range set.Markers {
		if m.Key.To.Kind == core.ProcHead || m.Key.To.Kind == core.ProcBody {
			if pr := plain.Procs[m.Key.To.ID]; pr.Name == "tiny" {
				hasTinyMarker = true
			}
		}
	}
	if !hasTinyMarker {
		t.Skip("selection did not mark the tiny call edge; nothing to compile away")
	}
	mapped, rep := MapMarkers(set, plain, inlined)
	if len(rep.Unmapped) == 0 {
		t.Fatal("inlined-away markers must be reported unmapped")
	}
	// The surviving subset still fires identically on both binaries.
	subset := Restrict(set, rep.Unmapped)
	if len(subset.Markers) != len(mapped.Markers) {
		t.Fatalf("subset %d != mapped %d", len(subset.Markers), len(mapped.Markers))
	}
	t0, err := Trace(plain, subset, 6, 8000)
	if err != nil {
		t.Fatal(err)
	}
	t1, err := Trace(inlined, mapped, 6, 8000)
	if err != nil {
		t.Fatal(err)
	}
	if len(t0) == 0 || !slices.Equal(t0, t1) {
		t.Fatalf("surviving markers diverge: %d vs %d firings", len(t0), len(t1))
	}
	// Compare's per-build comparison takes the same restricted path and
	// agrees; against the whole set's firings the inlined build diverges.
	args := []int64{6, 8000}
	ref, err := detect(plain, set, args)
	if err != nil {
		t.Fatal(err)
	}
	b, err := compareBuild(plain, inlined, set, ref, args)
	if err != nil {
		t.Fatal(err)
	}
	if b.Mapped != len(mapped.Markers) || b.Diff != nil {
		t.Fatalf("compareBuild on the inlined build: mapped %d, diff %v; want %d, nil", b.Mapped, b.Diff, len(mapped.Markers))
	}
	if slices.Equal(ref.seq, t1) {
		t.Fatal("the inlined build's firings match the whole -O0 set's; the restricted path is untested")
	}
}

// The paper's headline §6.2.1 scenario is cross-ISA (Alpha -> x86): here,
// markers selected on the register-machine binary are mapped into the
// stack-machine binary of the same source — a genuinely different
// instruction set and data-traffic profile — and must fire identically.
func TestCrossISARegisterToStackMachine(t *testing.T) {
	f, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	regBin, err := compile.Compile(f, compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	f2, _ := lang.Parse(src)
	stackBin, err := compile.Compile(f2, compile.Options{Stack: true})
	if err != nil {
		t.Fatal(err)
	}

	set := markers(t, &minivmProgram{regBin})
	mapped, rep := MapMarkers(set, regBin, stackBin)
	if len(rep.Unmapped) != 0 {
		t.Fatalf("unmapped markers across ISAs: %v", rep.Unmapped)
	}
	for _, args := range [][]int64{{6, 30_000}, {2, 9_000}} {
		t0, err := Trace(regBin, set, args...)
		if err != nil {
			t.Fatal(err)
		}
		t1, err := Trace(stackBin, mapped, args...)
		if err != nil {
			t.Fatal(err)
		}
		if len(t0) == 0 || !slices.Equal(t0, t1) {
			t.Fatalf("cross-ISA traces differ on %v: %d vs %d firings", args, len(t0), len(t1))
		}
	}
}
