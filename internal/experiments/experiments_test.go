package experiments

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"phasemark/internal/core"
	"phasemark/internal/trace"
	"phasemark/internal/uarch"
	"phasemark/internal/workloads"
)

func TestTableRender(t *testing.T) {
	tab := &Table{
		Title: "demo",
		Note:  "a note",
		Cols:  []string{"name", "x", "y"},
	}
	tab.AddRow("first", "1.0", "2.0")
	tab.AddRow("second-longer", "10.0", "200.0")
	s := tab.String()
	for _, want := range []string{"== demo ==", "a note", "second-longer", "200.0"} {
		if !strings.Contains(s, want) {
			t.Errorf("render missing %q:\n%s", want, s)
		}
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	// Header, separator, two rows, plus title/note.
	if len(lines) != 6 {
		t.Errorf("got %d lines:\n%s", len(lines), s)
	}
}

func TestFig3ShowsAlternatingPhases(t *testing.T) {
	tab, err := NewSuite(runtime.GOMAXPROCS(0)).Fig3(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) < 10 {
		t.Fatalf("only %d rows", len(tab.Rows))
	}
	// Markers must appear, and both high- and low-miss slices must exist.
	markers := 0
	var sawHigh, sawLow bool
	for _, row := range tab.Rows {
		if row[3] != "" {
			markers++
		}
		miss := row[2]
		if strings.HasPrefix(miss, "2") && strings.Contains(miss, "%") {
			sawHigh = true
		}
		if strings.HasPrefix(miss, "0.") {
			sawLow = true
		}
	}
	if markers < 4 {
		t.Errorf("only %d marker firings plotted", markers)
	}
	if !sawHigh || !sawLow {
		t.Errorf("missing alternating miss-rate levels (high=%v low=%v)", sawHigh, sawLow)
	}
}

// TestTimeVaryingMatchesTrace pins the slice attribution of Figures 3/4:
// a slice runs up to, but not including, the block that begins the next
// (§3.1), so every point must equal the matching fixed-length trace.Run
// interval bit for bit and carry the first marker firing inside it. A
// series built from its own observer stack with the cutter after the
// timing model charged each slice the base cycles of the next slice's
// first block.
func TestTimeVaryingMatchesTrace(t *testing.T) {
	w, err := workloads.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	prog := w.MustCompile(false)
	g, err := core.ProfileRun(prog, w.Train...)
	if err != nil {
		t.Fatal(err)
	}
	set := core.SelectMarkers(g, core.SelectOptions{ILower: ILower})
	const slice = 20_000
	pts, err := timeVarying(prog, w.Train, set, slice, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := trace.Run(trace.Config{Prog: prog, Args: w.Train, CPU: uarch.DefaultConfig(), FixedLen: slice, SkipBBV: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(res.Intervals) {
		t.Fatalf("%d points, trace.Run cut %d intervals", len(pts), len(res.Intervals))
	}
	fires, _, _, err := core.DetectFirings(prog, set, w.Train...)
	if err != nil {
		t.Fatal(err)
	}
	differ, marked := 0, 0
	for i, iv := range res.Intervals {
		p := pts[i]
		// The plotted marker is the first firing inside [Start, End).
		want := -1
		for _, f := range fires {
			if f.At >= iv.Start && f.At < iv.End {
				want = f.Marker
				break
			}
		}
		if want >= 0 {
			marked++
		}
		if p.Instr == iv.End && p.Marker == want &&
			math.Float64bits(p.CPI) == math.Float64bits(iv.CPI()) &&
			math.Float64bits(p.DL1Miss) == math.Float64bits(iv.Perf.L1MissRate()) {
			continue
		}
		if differ < 3 {
			t.Errorf("point %d: instr %d CPI %v DL1 %v marker %d, interval [%d,%d) CPI %v DL1 %v first firing %d",
				i, p.Instr, p.CPI, p.DL1Miss, p.Marker, iv.Start, iv.End, iv.CPI(), iv.Perf.L1MissRate(), want)
		}
		differ++
	}
	if differ > 0 {
		t.Errorf("%d of %d points differ from trace.Run's intervals", differ, len(pts))
	}
	if marked == 0 {
		t.Error("no slice holds a marker firing; the overlay is untested")
	}
}

func TestFig56VLIsBeatFixedIntervals(t *testing.T) {
	tab, err := NewSuite(runtime.GOMAXPROCS(0)).Fig56(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows: %v", tab.Rows)
	}
	fixed, vli := tab.Rows[0], tab.Rows[1]
	parse := func(s string) float64 {
		var v float64
		if _, err := sscan(s, &v); err != nil {
			t.Fatalf("parse %q: %v", s, err)
		}
		return v
	}
	if parse(vli[2]) >= parse(fixed[2]) {
		t.Errorf("VLI mean distance %s not below fixed %s", vli[2], fixed[2])
	}
}

func TestSelectionSpeedTableCoversAllWorkloads(t *testing.T) {
	tab, err := NewSuite(runtime.GOMAXPROCS(0)).SelectionSpeed(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 16 {
		t.Fatalf("rows = %d, want 16", len(tab.Rows))
	}
}

func sscan(s string, v *float64) (int, error) {
	return fmt.Sscanf(strings.TrimSuffix(s, "%"), "%f", v)
}
