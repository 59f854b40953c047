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
// other. Compare is that comparison, the one both the §6.2.1 table and
// its invariant in the correctness harness report.
package crossbin

import (
	"fmt"
	"slices"

	"phasemark/internal/compile"
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
func MapMarkers(set *core.MarkerSet, from, to *minivm.Program) (*core.MarkerSet, *Report) {
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
	return out, rep
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
	r, err := detect(prog, set, args)
	return r.seq, err
}

// run is what one detection run shows of a binary: the marker indexes
// fired, in order, and the program's observable behavior — its out()
// stream and the entry procedure's return value.
type run struct {
	seq []int
	out []int64
	rv  int64
}

func detect(prog *minivm.Program, set *core.MarkerSet, args []int64) (run, error) {
	fires, m, rv, err := core.DetectFirings(prog, set, args...)
	if err != nil {
		return run{}, err
	}
	seq := make([]int, len(fires))
	for i, f := range fires {
		seq[i] = f.Marker
	}
	return run{seq: seq, out: m.Output(), rv: rv}, nil
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

// builds are the compilations the §6.2.1 comparison carries a -O0 marker
// set into: the optimizing register build and the stack-machine ISA.
var builds = []struct {
	name string
	opts compile.Options
}{{"optimized", compile.Options{Optimize: true}}, {"stack", compile.Options{Stack: true}}}

// Build is one compilation's side of a Comparison.
type Build struct {
	Name   string // "optimized" or "stack"
	Mapped int    // markers of the -O0 set with an anchor in this build
	// Diff is nil when the build agrees with -O0 — same out() stream,
	// same return value, same firing sequence — and says where it first
	// departs otherwise.
	Diff error
}

// Comparison is the §6.2.1 result for one source and input.
type Comparison struct {
	Markers int     // markers in the -O0 set
	Fires   int     // firings of the whole set on the -O0 binary
	Builds  []Build // optimized, then stack
}

// Compare is the §6.2.1 comparison: it compiles src's optimized and stack
// builds, maps set — selected on prog, src's -O0 build — into each, and
// runs all three binaries on args under core.DetectFirings. Where a build
// compiled markers away, its firings are compared with the -O0 run of the
// surviving markers (Restrict). An error means a build could not be
// compiled or run; a build that runs but disagrees has a Diff.
func Compare(src string, prog *minivm.Program, set *core.MarkerSet, args ...int64) (*Comparison, error) {
	ref, err := detect(prog, set, args)
	if err != nil {
		return nil, fmt.Errorf("crossbin: -O0: %w", err)
	}
	c := &Comparison{Markers: len(set.Markers), Fires: len(ref.seq)}
	for _, b := range builds {
		bin, err := compile.CompileSource(src, b.opts)
		if err != nil {
			return nil, fmt.Errorf("crossbin: %s: %w", b.name, err)
		}
		build, err := compareBuild(prog, bin, set, ref, args)
		if err != nil {
			return nil, fmt.Errorf("crossbin: %s: %w", b.name, err)
		}
		build.Name = b.name
		c.Builds = append(c.Builds, build)
	}
	return c, nil
}

// compareBuild maps set from prog into bin and compares bin's run on args
// with ref, prog's run of the whole set.
func compareBuild(prog, bin *minivm.Program, set *core.MarkerSet, ref run, args []int64) (Build, error) {
	mapped, rep := MapMarkers(set, prog, bin)
	want := ref.seq
	if len(rep.Unmapped) > 0 {
		r, err := detect(prog, Restrict(set, rep.Unmapped), args)
		if err != nil {
			return Build{}, fmt.Errorf("-O0 restricted: %w", err)
		}
		want = r.seq
	}
	got, err := detect(bin, mapped, args)
	if err != nil {
		return Build{}, err
	}
	return Build{Mapped: rep.Mapped, Diff: diff(ref, want, got)}, nil
}

// diff compares a build's run with the -O0 run ref, whose firing sequence
// over the markers the build carries is want.
func diff(ref run, want []int, got run) error {
	switch {
	case got.rv != ref.rv:
		return fmt.Errorf("returned %d, -O0 returned %d", got.rv, ref.rv)
	case !slices.Equal(got.out, ref.out):
		return fmt.Errorf("out() stream differs from -O0 (%d vs %d values)", len(got.out), len(ref.out))
	case !slices.Equal(got.seq, want):
		i := 0
		for i < len(want) && i < len(got.seq) && want[i] == got.seq[i] {
			i++
		}
		return fmt.Errorf("marker trace diverges from -O0 at firing %d (of %d vs %d)", i, len(want), len(got.seq))
	}
	return nil
}
