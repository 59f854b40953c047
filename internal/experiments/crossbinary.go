package experiments

import (
	"context"
	"fmt"
	"time"

	"phasemark/internal/core"
	"phasemark/internal/crossbin"
	"phasemark/internal/minivm"
	"phasemark/internal/sequitur"
	"phasemark/internal/workloads"
)

// CrossBinary reproduces the §6.2.1 study from crossbin.Compare: for
// every workload, markers are selected on the -O0 register binary and
// mapped through source debug info both to the peak-optimized binary and
// to the stack-machine binary (a different ISA); all three binaries run
// the same input and the sequences of marker firings must match exactly
// for the markers to define cross-binary simulation points. A build
// matches (YES) when it also agrees with -O0 on output and return value;
// its match is "-" when some marker did not map.
func (s *Suite) CrossBinary(ctx context.Context) (*Table, error) {
	t := &Table{
		Title: "§6.2.1: cross-binary phase-marker traces (-O0 vs optimized vs stack ISA)",
		Note:  "identical traces mean simulation points can be reused across compilations and ISAs",
		Cols: []string{"program", "markers", "fires -O0",
			"opt mapped", "opt match", "stack mapped", "stack match"},
	}
	ws := workloads.All()
	rows := make([][]string, len(ws))
	err := s.ForEachWorkload(ws, func(i int, w *workloads.Workload) error {
		prog, err := s.pl.Program(ctx, w.Name)
		if err != nil {
			return err
		}
		set, err := s.markers(ctx, w, "no-limit cross")
		if err != nil {
			return err
		}
		c, err := crossbin.Compare(w.Source, prog, set, w.Ref...)
		if err != nil {
			return err
		}
		row := []string{w.Name, itoa(c.Markers), itoa(c.Fires)}
		for _, b := range c.Builds {
			match := "-"
			if b.Mapped == c.Markers {
				match = "NO"
				if b.Diff == nil {
					match = "YES"
				}
			}
			row = append(row, itoa(b.Mapped), match)
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		t.AddRow(row...)
	}
	return t, nil
}

// SelectionSpeed reports the marker-selection analysis cost per program —
// the paper's claim that the whole analysis runs in seconds (O(E + N log
// N) on the call-loop graph) where the prior approaches run Sequitur over
// full execution traces ([15] on branch traces; [23] on reuse traces). To
// make the comparison concrete, the table also times SEQUITUR grammar
// inference over the program's dynamic basic-block trace, capped at
// seqCap events (the real traces are orders of magnitude longer, so the
// Sequitur column is a generous lower bound).
func (s *Suite) SelectionSpeed(ctx context.Context) (*Table, error) {
	const seqCap = 300_000
	t := &Table{
		Title: "§5.1: analysis cost — call-loop selection vs Sequitur-on-trace",
		Note:  fmt.Sprintf("Sequitur timed on the first %d block events of the train run (a generous lower bound)", seqCap),
		Cols:  []string{"program", "nodes", "edges", "select time", "trace events", "sequitur time", "ratio"},
	}
	ws := workloads.All()
	rows := make([][]string, len(ws))
	err := s.ForEachWorkload(ws, func(i int, w *workloads.Workload) error {
		prog, err := s.pl.Program(ctx, w.Name)
		if err != nil {
			return err
		}
		g, err := s.pl.Graph(ctx, w.Name, true)
		if err != nil {
			return err
		}
		start := time.Now()
		core.SelectMarkers(g, core.SelectOptions{ILower: ILower})
		sel := time.Since(start)

		// Collect a capped dynamic block trace of the train input.
		tr := &traceCap{cap: seqCap}
		m := minivm.NewMachine(prog, tr)
		if _, err := m.Run(w.Train...); err != nil {
			return err
		}
		start = time.Now()
		gram := sequitur.Build(tr.seq)
		seq := time.Since(start)
		_ = gram
		ratio := float64(seq) / float64(sel)
		rows[i] = []string{w.Name, itoa(len(g.Nodes)), itoa(len(g.Edges)),
			sel.Round(time.Microsecond).String(),
			itoa(len(tr.seq)), seq.Round(time.Millisecond).String(),
			fmt.Sprintf("%.0fx", ratio)}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		t.AddRow(row...)
	}
	return t, nil
}

type traceCap struct {
	minivm.NopObserver
	cap int
	seq []int
}

// ObservedEvents implements minivm.EventMasker.
func (t *traceCap) ObservedEvents() minivm.EventMask { return minivm.EvBlock }

func (t *traceCap) OnBlock(b *minivm.Block) {
	if len(t.seq) < t.cap {
		t.seq = append(t.seq, b.ID)
	}
}
