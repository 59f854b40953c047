// Package crossbin maps software phase markers across different
// compilations of the same source program (§5.3 Figure 4 and §6.2.1).
//
// Markers name call-loop graph edges in one binary. Their anchors are
// mapped back to source positions through the debug info the compiler
// leaves on blocks and call terminators, then re-bound to the equivalent
// anchors in the other binary: procedures match by name, loops by the
// source position of their head, call sites by callee plus source
// position. A marker trace (the sequence of marker firings on one input)
// can then be compared across binaries; identical traces mean simulation
// points chosen on one binary identify the same execution regions in the
// other.
package crossbin

import (
	"fmt"

	"phasemark/internal/core"
	"phasemark/internal/minivm"
)

type pos struct {
	proc string
	line int
	col  int
}

// binIndex indexes one binary's markable anchors by source position.
type binIndex struct {
	prog      *minivm.Program
	procByNm  map[string]*minivm.Proc
	loopByPos map[pos]*minivm.Loop // loop head position -> loop
	callByPos map[pos]*minivm.Block
	posOfLoop map[int]pos // loop head block ID -> position
	posOfCall map[int]pos // call-site block ID -> position
}

func index(prog *minivm.Program) *binIndex {
	ix := &binIndex{
		prog:      prog,
		procByNm:  map[string]*minivm.Proc{},
		loopByPos: map[pos]*minivm.Loop{},
		callByPos: map[pos]*minivm.Block{},
		posOfLoop: map[int]pos{},
		posOfCall: map[int]pos{},
	}
	for _, pr := range prog.Procs {
		ix.procByNm[pr.Name] = pr
	}
	for _, l := range minivm.FindLoops(prog).All {
		p := pos{proc: l.Proc.Name, line: l.Head.Line, col: l.Head.Col}
		ix.loopByPos[p] = l
		ix.posOfLoop[l.Head.ID] = p
	}
	for _, pr := range prog.Procs {
		for _, b := range pr.Blocks {
			if b.Term.Kind == minivm.TermCall {
				callee := prog.Procs[b.Term.Callee].Name
				p := pos{proc: callee, line: b.Term.Line, col: b.Term.Col}
				ix.callByPos[p] = b
				ix.posOfCall[b.ID] = p
			}
		}
	}
	return ix
}

// Report describes a mapping attempt.
type Report struct {
	Mapped   int
	Unmapped []core.EdgeKey // markers with no equivalent anchor in the target
}

// MapMarkers rebinds markers selected on binary `from` to binary `to`
// (two compilations of the same source). Unmappable markers are dropped
// and reported.
func MapMarkers(set *core.MarkerSet, from, to *minivm.Program) (*core.MarkerSet, *Report, error) {
	fi, ti := index(from), index(to)
	out := &core.MarkerSet{Opts: set.Opts, CovBase: set.CovBase, CovSlack: set.CovSlack}
	rep := &Report{}
	for _, m := range set.Markers {
		key, ok := mapKey(m.Key, fi, ti)
		if !ok {
			rep.Unmapped = append(rep.Unmapped, m.Key)
			continue
		}
		nm := m
		nm.Key = key
		out.Markers = append(out.Markers, nm)
		rep.Mapped++
	}
	return out, rep, nil
}

func mapNode(k core.NodeKey, fi, ti *binIndex) (core.NodeKey, bool) {
	switch k.Kind {
	case core.ProcHead, core.ProcBody:
		pr := fi.prog.Procs[k.ID]
		tpr, ok := ti.procByNm[pr.Name]
		if !ok {
			return core.NodeKey{}, false
		}
		return core.NodeKey{Kind: k.Kind, ID: tpr.ID}, true
	case core.LoopHead, core.LoopBody:
		p, ok := fi.posOfLoop[k.ID]
		if !ok {
			return core.NodeKey{}, false
		}
		tl, ok := ti.loopByPos[p]
		if !ok {
			return core.NodeKey{}, false
		}
		return core.NodeKey{Kind: k.Kind, ID: tl.Head.ID}, true
	default: // root
		return k, true
	}
}

func mapKey(k core.EdgeKey, fi, ti *binIndex) (core.EdgeKey, bool) {
	from, ok := mapNode(k.From, fi, ti)
	if !ok {
		return core.EdgeKey{}, false
	}
	to, ok := mapNode(k.To, fi, ti)
	if !ok {
		return core.EdgeKey{}, false
	}
	out := core.EdgeKey{From: from, To: to}
	// Re-anchor the site.
	switch {
	case k.To.Kind == core.LoopHead || k.To.Kind == core.LoopBody:
		out.Site = to.ID // loop edges anchor at the (mapped) head block
	case k.To.Kind == core.ProcBody && k.From.Kind == core.ProcHead:
		// head→body edge anchors at the callee entry block.
		out.Site = ti.prog.Procs[to.ID].Blocks[0].ID
	case k.From.Kind == core.RootKind:
		// The virtual root's call of the entry procedure anchors at the
		// entry block.
		out.Site = ti.prog.EntryProc().Blocks[0].ID
	default:
		// Call edge: anchor at the equivalent call site.
		p, ok := fi.posOfCall[k.Site]
		if !ok {
			return core.EdgeKey{}, false
		}
		tb, ok := ti.callByPos[p]
		if !ok {
			return core.EdgeKey{}, false
		}
		out.Site = tb.ID
	}
	return out, true
}

// Trace runs prog with the marker set and returns the sequence of marker
// indexes fired, in order. Two compilations of one source given the same
// input and equivalent marker sets must produce identical traces — the
// §6.2.1 validation.
func Trace(prog *minivm.Program, set *core.MarkerSet, args ...int64) ([]int, error) {
	seq, _, _, err := TraceOutput(prog, set, args...)
	return seq, err
}

// TraceOutput is Trace plus the program's observable behavior: the out()
// stream and the entry procedure's return value. The differential backend
// oracle needs both halves — compilations must agree on what the program
// computes and on when its markers fire.
func TraceOutput(prog *minivm.Program, set *core.MarkerSet, args ...int64) (seq []int, out []int64, rv int64, err error) {
	if err := prog.Check(); err != nil {
		return nil, nil, 0, fmt.Errorf("crossbin: trace run: %w", err)
	}
	det := core.NewDetector(prog, nil, set, func(marker int, at uint64) {
		seq = append(seq, marker)
	})
	m := minivm.NewMachine(prog, det)
	rv, err = m.Run(args...)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("crossbin: trace run: %w", err)
	}
	return seq, m.Output(), rv, nil
}

// Restrict returns a copy of set without the markers named in drop —
// used to compare traces across binaries where some markers were compiled
// away (e.g. a call edge removed by inlining): the surviving subset must
// still fire identically on both binaries.
func Restrict(set *core.MarkerSet, drop []core.EdgeKey) *core.MarkerSet {
	dead := map[core.EdgeKey]bool{}
	for _, k := range drop {
		dead[k] = true
	}
	out := &core.MarkerSet{Opts: set.Opts, CovBase: set.CovBase, CovSlack: set.CovSlack}
	for _, m := range set.Markers {
		if !dead[m.Key] {
			out.Markers = append(out.Markers, m)
		}
	}
	return out
}

// TracesEqual compares two marker traces.
func TracesEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
