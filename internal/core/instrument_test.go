package core

import (
	"testing"

	"phasemark/internal/minivm"
)

// The crucial property: running the physically instrumented binary yields
// the same boundary sequence as the walker-based detector on the original
// binary — markers really are instructions in the binary.
func TestInstrumentedBinaryMatchesDetector(t *testing.T) {
	for _, opt := range []bool{false, true} {
		prog := mustCompile(t, phasedProgram, opt)
		g := mustProfile(t, prog, 10, 400)
		set := SelectMarkers(g, SelectOptions{ILower: 1000})
		if len(set.Markers) == 0 {
			t.Fatal("no markers")
		}

		// Reference: walker-based detection on the original binary.
		var want []int
		det, err := NewDetector(prog, nil, set, func(marker int, at uint64) {
			want = append(want, marker)
		})
		if err != nil {
			t.Fatal(err)
		}
		m := minivm.NewMachine(prog, det)
		if _, err := m.Run(25, 400); err != nil {
			t.Fatal(err)
		}

		// Physically instrumented binary, raw mark stream through GroupN.
		inst, err := Instrument(prog, set)
		if err != nil {
			t.Fatalf("opt=%v: %v", opt, err)
		}
		var got []int
		h := NewMarkHandler(set, func(marker int) { got = append(got, marker) })
		m2 := minivm.NewMachine(inst, nil)
		m2.MarkFunc = h.Fn
		rv2, err := m2.Run(25, 400)
		if err != nil {
			t.Fatal(err)
		}

		// Same program behavior (marks are side-effect-free).
		rv1, _ := minivm.NewMachine(prog, nil).Run(25, 400)
		if rv1 != rv2 {
			t.Fatalf("opt=%v: instrumentation changed behavior: %d vs %d", opt, rv1, rv2)
		}
		if len(want) == 0 {
			t.Fatalf("opt=%v: detector never fired", opt)
		}
		if len(got) != len(want) {
			t.Fatalf("opt=%v: %d instrumented fires vs %d detector fires\nwant %v\ngot  %v",
				opt, len(got), len(want), want, got)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("opt=%v: firing %d differs: %d vs %d", opt, i, got[i], want[i])
			}
		}
	}
}

// DetectFirings and InstrumentedFirings both return the entry
// procedure's return value, and it is the bare machine's: neither the
// detector nor the inserted marks change what the program computes.
func TestFiringRunsReturnEntryValue(t *testing.T) {
	for _, opt := range []bool{false, true} {
		prog := mustCompile(t, phasedProgram, opt)
		g := mustProfile(t, prog, 10, 400)
		set := SelectMarkers(g, SelectOptions{ILower: 1000})
		want, err := minivm.NewMachine(prog, nil).Run(25, 400)
		if err != nil {
			t.Fatal(err)
		}
		if want == 0 {
			t.Fatalf("opt=%v: entry returned 0, want a computed nonzero value", opt)
		}
		_, _, det, err := DetectFirings(prog, set, 25, 400)
		if err != nil {
			t.Fatal(err)
		}
		_, _, inst, err := InstrumentedFirings(prog, set, 25, 400)
		if err != nil {
			t.Fatal(err)
		}
		if det != want || inst != want {
			t.Fatalf("opt=%v: DetectFirings returned %d, InstrumentedFirings %d, bare machine %d", opt, det, inst, want)
		}
	}
}

func TestInstrumentDoesNotMutateOriginal(t *testing.T) {
	prog := mustCompile(t, phasedProgram, false)
	g := mustProfile(t, prog, 10, 400)
	set := SelectMarkers(g, SelectOptions{ILower: 1000})
	before := minivm.Print(prog)
	if _, err := Instrument(prog, set); err != nil {
		t.Fatal(err)
	}
	if minivm.Print(prog) != before {
		t.Fatal("Instrument mutated the input program")
	}
}

func TestInstrumentGroupN(t *testing.T) {
	// A flat loop whose only marker is a grouped iteration marker: the
	// handler must fire once per GroupN iterations.
	src := `
proc main(n) {
	var s = 0;
	for (var i = 0; i < n; i = i + 1) { s = s + i; }
	out(s);
	return s;
}
`
	prog := mustCompile(t, src, false)
	g := mustProfile(t, prog, 20000)
	set := SelectMarkers(g, SelectOptions{ILower: 600, MaxLimit: 6000})
	var grouped *Marker
	for i := range set.Markers {
		if set.Markers[i].GroupN > 1 {
			grouped = &set.Markers[i]
		}
	}
	if grouped == nil {
		t.Fatal("no grouped marker")
	}
	inst, err := Instrument(prog, set)
	if err != nil {
		t.Fatal(err)
	}
	h := NewMarkHandler(set, nil)
	m := minivm.NewMachine(inst, nil)
	m.MarkFunc = h.Fn
	if _, err := m.Run(20000); err != nil {
		t.Fatal(err)
	}
	// ~20000 iterations / GroupN firings, +-1 for the partial group.
	wantLo := uint64(20000/grouped.GroupN) - 1
	wantHi := uint64(20000/grouped.GroupN) + 1
	if h.Fired() < wantLo || h.Fired() > wantHi {
		t.Fatalf("fired %d, want ~%d (GroupN=%d)", h.Fired(), 20000/grouped.GroupN, grouped.GroupN)
	}
}
