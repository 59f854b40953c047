package reuse

import (
	"fmt"
	"sort"

	"phasemark/internal/minivm"
	"phasemark/internal/obs"
)

// Selection parameters; Figure 10's golden table was produced with these.
const (
	distBlockBytes = 64    // granularity of reuse distances, in bytes
	signalWindow   = 1024  // accesses per signal sample
	smoothLevels   = 3     // Haar smoothing levels
	jumpThreshold  = 0.15  // boundary jump as a fraction of the signal's range
	minGapSamples  = 4     // min samples between boundaries
	corrWindow     = 30000 // instructions either side of a boundary that correlate with it
	minPrecision   = 0.4   // min fraction of a block's executions near boundaries
)

// Markers is a set of reuse-distance phase markers: static basic blocks
// whose executions signal locality-phase changes. MinGap suppresses
// re-fires within a refractory window, mirroring the per-pattern firing of
// the original scheme.
type Markers struct {
	Blocks     []int
	MinGap     uint64
	Boundaries int // boundaries detected in the training signal
	Covered    int // boundaries covered by the selected blocks
}

// Select derives reuse-distance markers for prog on the given training
// input. It makes two instrumented runs: one to build and segment the
// reuse-distance signal, one to correlate basic blocks with the detected
// phase boundaries (the Sequitur-pattern step of [23] reduced to its
// effect: find blocks that fire at locality-phase starts).
func Select(prog *minivm.Program, args []int64) (*Markers, error) {
	sp := obs.StartSpan("reuse.select", "")
	defer sp.End()
	// Pass 1: reuse-distance signal.
	sc := NewSignalCollector(distBlockBytes, signalWindow)
	m := minivm.NewMachine(prog, sc)
	if _, err := m.Run(args...); err != nil {
		return nil, fmt.Errorf("reuse: signal run: %w", err)
	}
	sc.Finish()
	sig := make([]float64, len(sc.Samples))
	for i, s := range sc.Samples {
		sig[i] = s.MeanLog
	}
	smoothed := HaarSmooth(sig, smoothLevels)
	bidx := Boundaries(smoothed, jumpThreshold, minGapSamples)
	// Smoothing localizes a jump only to within a 2^levels-sample block;
	// refine each boundary to the largest raw-signal jump nearby.
	radius := 1 << smoothLevels
	for i, bi := range bidx {
		lo, hi := bi-radius, bi+radius
		if lo < 1 {
			lo = 1
		}
		if hi >= len(sig) {
			hi = len(sig) - 1
		}
		best, bestJump := bi, -1.0
		for j := lo; j <= hi; j++ {
			if jump := abs(sig[j] - sig[j-1]); jump > bestJump {
				best, bestJump = j, jump
			}
		}
		bidx[i] = best
	}
	bpos := make([]uint64, len(bidx))
	for i, bi := range bidx {
		if bi > 0 {
			bpos[i] = sc.Samples[bi-1].Instr // phase starts after the previous window
		}
	}

	mk := &Markers{MinGap: corrWindow, Boundaries: len(bpos)}
	if len(bpos) == 0 {
		return mk, nil // no structure found (the gcc/vortex failure mode of [23])
	}

	// Pass 2: correlate block executions with boundary windows.
	corr := &correlator{bpos: bpos, window: corrWindow,
		hits: map[int]int{}, execs: map[int]int{}, covered: map[int]map[int]bool{}}
	m2 := minivm.NewMachine(prog, corr)
	if _, err := m2.Run(args...); err != nil {
		return nil, fmt.Errorf("reuse: correlation run: %w", err)
	}

	type cand struct {
		block     int
		precision float64
		cov       map[int]bool
	}
	var cands []cand
	for blk, h := range corr.hits {
		p := float64(h) / float64(corr.execs[blk])
		if p >= minPrecision {
			cands = append(cands, cand{block: blk, precision: p, cov: corr.covered[blk]})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		si := cands[i].precision * float64(len(cands[i].cov))
		sj := cands[j].precision * float64(len(cands[j].cov))
		if si != sj {
			return si > sj
		}
		return cands[i].block < cands[j].block
	})
	uncovered := map[int]bool{}
	for i := range bpos {
		uncovered[i] = true
	}
	for _, c := range cands {
		news := 0
		for b := range c.cov {
			if uncovered[b] {
				news++
			}
		}
		if news == 0 {
			continue
		}
		mk.Blocks = append(mk.Blocks, c.block)
		for b := range c.cov {
			delete(uncovered, b)
		}
		if len(uncovered) == 0 {
			break
		}
	}
	sort.Ints(mk.Blocks)
	mk.Covered = len(bpos) - len(uncovered)
	return mk, nil
}

type correlator struct {
	minivm.NopObserver
	bpos    []uint64
	window  uint64
	instrs  uint64
	next    int // first boundary with bpos+window >= instrs
	hits    map[int]int
	execs   map[int]int
	covered map[int]map[int]bool
}

// ObservedEvents implements minivm.EventMasker.
func (c *correlator) ObservedEvents() minivm.EventMask { return minivm.EvBlock }

func (c *correlator) OnBlock(b *minivm.Block) {
	p := c.instrs
	c.instrs += uint64(b.Weight())
	c.execs[b.ID]++
	// The smoothed signal localizes a boundary only to within a few
	// windows, so correlation uses a two-sided window around it.
	for c.next < len(c.bpos) && c.bpos[c.next]+c.window < p {
		c.next++
	}
	if c.next < len(c.bpos) && c.bpos[c.next] <= p+c.window && p <= c.bpos[c.next]+c.window {
		c.hits[b.ID]++
		cov := c.covered[b.ID]
		if cov == nil {
			cov = map[int]bool{}
			c.covered[b.ID] = cov
		}
		cov[c.next] = true
	}
}

// Detector fires the reuse markers on an execution: when a marked block
// executes outside the refractory gap, the boundary callback runs with the
// marker's index as the phase ID.
type Detector struct {
	minivm.NopObserver
	phase    map[int]int
	minGap   uint64
	instrs   uint64
	lastFire uint64
	armed    bool
	onFire   func(phase int, at uint64)
	fired    uint64
}

// NewDetector builds a detector for mk; onFire may be nil.
func NewDetector(mk *Markers, onFire func(phase int, at uint64)) *Detector {
	d := &Detector{phase: map[int]int{}, minGap: mk.MinGap, onFire: onFire, armed: true}
	for i, b := range mk.Blocks {
		d.phase[b] = i
	}
	return d
}

// ObservedEvents implements minivm.EventMasker.
func (d *Detector) ObservedEvents() minivm.EventMask { return minivm.EvBlock }

// OnBlock implements minivm.Observer.
func (d *Detector) OnBlock(b *minivm.Block) {
	p := d.instrs
	d.instrs += uint64(b.Weight())
	ph, ok := d.phase[b.ID]
	if !ok {
		return
	}
	if d.armed || p-d.lastFire >= d.minGap {
		d.fired++
		d.lastFire = p
		d.armed = false
		if d.onFire != nil {
			d.onFire(ph, p)
		}
	}
}

// Fired reports the total firings.
func (d *Detector) Fired() uint64 { return d.fired }

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
