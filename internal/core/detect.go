package core

import (
	"fmt"

	"phasemark/internal/minivm"
)

// BoundaryFunc is called when a phase marker fires: marker is the index in
// the MarkerSet, at is the dynamic instruction count at the firing point
// (the beginning of the new interval).
type BoundaryFunc func(marker int, at uint64)

// Detector watches an execution for phase-marker firings. It embeds a
// Walker, so wire it to the machine as the Observer. Detection is purely
// structural: it needs no hardware support and no per-interval metrics —
// this is the paper's "insert instrumentation at the markers" runtime,
// applied to the same or a different input than the one profiled.
type Detector struct {
	*Walker
	set    *MarkerSet
	marker []int32 // walker edge id -> marker index, or -1 for none
	seen   []uint64
	fired  []uint64
	onFire BoundaryFunc
}

type detectSink struct{ d *Detector }

func (s detectSink) EdgeOpen(id int32, at uint64) {
	d := s.d
	// Ids are numbered at their first open, so an unseen id is always the
	// next one: resolve it against the marker set once, and every later
	// traversal of the edge is a single indexed load.
	if int(id) >= len(d.marker) {
		d.marker = append(d.marker, d.markerOf(d.Key(id)))
	}
	i := d.marker[id]
	if i < 0 {
		return
	}
	d.seen[i]++
	if (d.seen[i]-1)%d.set.Markers[i].GroupN == 0 {
		d.fired[i]++
		if d.onFire != nil {
			d.onFire(int(i), at)
		}
	}
}

func (s detectSink) EdgeClose(int32, uint64) {}

// edgeOpenOnly tells the walker detection never reads edge closes.
func (s detectSink) edgeOpenOnly() {}

// NewDetector builds a detector for set over prog. The loop table may be
// shared with other components; pass nil to compute it here.
func NewDetector(prog *minivm.Program, loops *minivm.Loops, set *MarkerSet, onFire BoundaryFunc) *Detector {
	if loops == nil {
		loops = minivm.FindLoops(prog)
	}
	d := &Detector{
		set:    set,
		seen:   make([]uint64, len(set.Markers)),
		fired:  make([]uint64, len(set.Markers)),
		onFire: onFire,
	}
	// The root edges open on construction, and resolving their ids
	// already needs d.Walker.
	d.Walker = newWalker(prog, loops, detectSink{d: d})
	d.openRoot()
	return d
}

// markerOf returns the index of the first marker on edge k, or -1.
func (d *Detector) markerOf(k EdgeKey) int32 {
	for i, mk := range d.set.Markers {
		if mk.Key == k {
			return int32(i)
		}
	}
	return -1
}

// Fired reports how many times marker i fired.
func (d *Detector) Fired(i int) uint64 { return d.fired[i] }

// Firing is one recorded marker firing: the marker's index in its set and
// the dynamic instruction count at the firing point.
type Firing struct {
	Marker int
	At     uint64
}

// DetectFirings runs prog under a walker-based detector for set and
// returns every firing in execution order, the finished machine (for
// output and instruction-count inspection) and the entry procedure's
// return value. It is the analysis-side reference the correctness
// harness compares instrumented binaries and other compilations against.
func DetectFirings(prog *minivm.Program, set *MarkerSet, args ...int64) ([]Firing, *minivm.Machine, int64, error) {
	if err := prog.Check(); err != nil {
		return nil, nil, 0, fmt.Errorf("core: detect firings: %w", err)
	}
	var seq []Firing
	det := NewDetector(prog, nil, set, func(marker int, at uint64) {
		seq = append(seq, Firing{Marker: marker, At: at})
	})
	m := minivm.NewMachine(prog, det)
	rv, err := m.Run(args...)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("core: detect firings: %w", err)
	}
	return seq, m, rv, nil
}

// InstrumentedFirings physically instruments prog with set (Instrument),
// runs the rewritten binary, and returns the mark-stream firings with
// GroupN applied, the finished machine and the entry procedure's return
// value, as DetectFirings does. Firing.At counts the instrumented
// binary's instructions, which include the inserted marks and
// trampolines — compare marker sequences across binaries, not positions.
func InstrumentedFirings(prog *minivm.Program, set *MarkerSet, args ...int64) ([]Firing, *minivm.Machine, int64, error) {
	inst, err := Instrument(prog, set)
	if err != nil {
		return nil, nil, 0, err
	}
	var seq []Firing
	m := minivm.NewMachine(inst, nil)
	h := NewMarkHandler(set, func(marker int) {
		seq = append(seq, Firing{Marker: marker, At: m.Instructions()})
	})
	m.MarkFunc = h.Fn
	rv, err := m.Run(args...)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("core: instrumented firings: %w", err)
	}
	return seq, m, rv, nil
}

// TotalFired reports the total number of marker firings (phase-change
// signals) observed.
func (d *Detector) TotalFired() uint64 {
	var n uint64
	for _, f := range d.fired {
		n += f
	}
	return n
}
