// Package adapt implements the data-cache reconfiguration study of §6.1:
// an adaptive cache (64-byte blocks, 512 sets, 1–8 ways ⇒ 32–256 KB) is
// reconfigured at phase boundaries. For each phase ID the first two
// intervals are spent experimenting to find the best configuration — the
// smallest cache with no increase in miss rate over the largest — and the
// phase's configuration is reused whenever its marker fires again.
//
// Phase boundaries can come from software phase markers (ours), from
// reuse-distance markers (the Shen et al. baseline), from fixed-length
// intervals classified by an idealized SimPoint (the "BBV" bar), or from a
// best-fixed-size oracle.
package adapt

import (
	"fmt"

	"phasemark/internal/bbv"
	"phasemark/internal/core"
	"phasemark/internal/minivm"
	"phasemark/internal/obs"
	"phasemark/internal/reuse"
	"phasemark/internal/trace"
	"phasemark/internal/uarch"
)

// NumConfigs is the number of adaptive configurations (1..8 ways).
const NumConfigs = 8

// BaseConfig is one way of the adaptive cache: 64 B × 512 sets = 32 KB.
var BaseConfig = uarch.CacheConfig{BlockBytes: 64, Sets: 512, Ways: 1}

// SizeKB reports the size of configuration c (0-based: c+1 ways).
func SizeKB(c int) int { return BaseConfig.SizeBytes() * (c + 1) / 1024 }

// Interval is one phase-delimited slice of execution with per-config cache
// statistics (all configurations are simulated in parallel, warm, as in
// Cheetah-style multi-configuration simulation).
type Interval struct {
	Phase    int
	Instrs   uint64
	Accesses uint64
	Misses   [NumConfigs]uint64
}

// RunResult is a segmented multi-configuration cache simulation.
type RunResult struct {
	Intervals   []Interval
	TotalInstrs uint64
	NumBlocks   int
	BBVs        []bbv.Vector // collected only for fixed-length runs
}

// Source selects the phase-boundary mechanism; exactly one field is used,
// checked in order: FixedLen, SPM, Reuse.
type Source struct {
	FixedLen uint64          // fixed-length intervals (BBV / best-fixed baselines)
	SPM      *core.MarkerSet // software phase markers
	Reuse    *reuse.Markers  // reuse-distance markers
}

// multiCache simulates all NumConfigs configurations with one
// NumConfigs-way LRU cache over BaseConfig's sets: by LRU inclusion the
// configuration with w ways holds exactly the w most recently used lines
// of each set, so a reference found at depth d misses in every
// configuration with at most d ways.
type multiCache struct {
	c        *uarch.Cache
	accesses uint64
	misses   [NumConfigs]uint64
}

func newMultiCache() *multiCache {
	cfg := BaseConfig
	cfg.Ways = NumConfigs
	return &multiCache{c: uarch.NewCache(cfg)}
}

func (mc *multiCache) access(addr uint64) {
	mc.accesses++
	for i := range mc.c.Depth(addr) {
		mc.misses[i]++
	}
}

// segmenter is a run's one machine observer: the boundary source, whose
// firings cut intervals, then the BBV touch (fixed-length runs only), and
// the multi-configuration cache on memory references.
type segmenter struct {
	minivm.NopObserver
	boundary  minivm.Observer
	mc        *multiCache
	intervals []Interval
	lastAcc   uint64
	lastMiss  [NumConfigs]uint64
	lastCut   uint64
	phase     int

	bbvAcc *bbv.Accumulator // nil unless collecting BBVs
	bbvs   []bbv.Vector
}

// ObservedEvents implements minivm.EventMasker.
func (s *segmenter) ObservedEvents() minivm.EventMask {
	return minivm.MaskOf(s.boundary) | minivm.EvMem
}

// OnBlock implements minivm.Observer.
func (s *segmenter) OnBlock(b *minivm.Block) {
	s.boundary.OnBlock(b)
	if s.bbvAcc != nil {
		s.bbvAcc.Touch(b.ID, b.Weight())
	}
}

// OnCall implements minivm.Observer.
func (s *segmenter) OnCall(site *minivm.Block, callee *minivm.Proc) { s.boundary.OnCall(site, callee) }

// OnReturn implements minivm.Observer.
func (s *segmenter) OnReturn(callee *minivm.Proc) { s.boundary.OnReturn(callee) }

// OnMem implements minivm.Observer.
func (s *segmenter) OnMem(addr uint64, write bool) { s.mc.access(addr) }

func (s *segmenter) cut(phase int, at uint64) {
	if at == s.lastCut {
		s.phase = phase
		return
	}
	iv := Interval{Phase: s.phase, Instrs: at - s.lastCut, Accesses: s.mc.accesses - s.lastAcc}
	for i := range iv.Misses {
		iv.Misses[i] = s.mc.misses[i] - s.lastMiss[i]
	}
	s.intervals = append(s.intervals, iv)
	if s.bbvAcc != nil {
		s.bbvs = append(s.bbvs, s.bbvAcc.Snapshot())
	}
	s.lastCut = at
	s.lastAcc = s.mc.accesses
	s.lastMiss = s.mc.misses
	s.phase = phase
}

// Run executes prog under the multi-configuration cache simulation,
// cutting intervals per src.
func Run(prog *minivm.Program, args []int64, src Source) (*RunResult, error) {
	sp := obs.StartSpan("adapt.run", "")
	defer sp.End()
	if err := prog.Check(); err != nil {
		return nil, fmt.Errorf("adapt: %w", err)
	}
	seg := &segmenter{mc: newMultiCache(), phase: -1}
	switch {
	case src.FixedLen > 0:
		seg.bbvAcc = bbv.NewAccumulator(prog.NumBlocks)
		seg.boundary = trace.NewFixedCutter(src.FixedLen, func(at uint64) {
			seg.cut(-1, at)
		})
	case src.SPM != nil:
		det, err := core.NewDetector(prog, nil, src.SPM, func(marker int, at uint64) {
			seg.cut(marker, at)
		})
		if err != nil {
			return nil, fmt.Errorf("adapt: %w", err)
		}
		seg.boundary = det
	case src.Reuse != nil:
		seg.boundary = reuse.NewDetector(src.Reuse, func(phase int, at uint64) {
			seg.cut(phase, at)
		})
	default:
		return nil, fmt.Errorf("adapt: empty source")
	}

	m := minivm.NewMachine(prog, seg)
	if _, err := m.Run(args...); err != nil {
		return nil, fmt.Errorf("adapt: run failed: %w", err)
	}
	seg.cut(-1, m.Instructions())
	return &RunResult{
		Intervals:   seg.intervals,
		TotalInstrs: m.Instructions(),
		NumBlocks:   prog.NumBlocks,
		BBVs:        seg.bbvs,
	}, nil
}
