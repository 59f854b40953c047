// Package trace segments a program's execution into intervals — fixed
// length (the prior-work baseline) or variable length cut at software
// phase-marker firings — collecting a basic block vector and timing-model
// counters for each interval. It also provides the paper's homogeneity
// metric: the weighted per-phase coefficient of variation (§3.1).
package trace

import (
	"fmt"
	"runtime"

	"phasemark/internal/bbv"
	"phasemark/internal/core"
	"phasemark/internal/minivm"
	"phasemark/internal/obs"
	"phasemark/internal/uarch"
)

// Segmentation metrics: how many measured runs happened, how finely they
// were cut, and the interval-length distribution across all of them.
var (
	obsTraceRuns    = obs.NewCounter("trace.runs")
	obsIntervals    = obs.NewCounter("trace.intervals")
	obsMarkerFires  = obs.NewCounter("trace.marker_fires")
	obsIntervalLens = obs.NewHist("trace.interval_instructions")
)

// ProloguePhase is the phase ID of execution before the first marker
// firing (and of all intervals when cutting at fixed lengths, where phase
// IDs are assigned later by clustering).
const ProloguePhase = -1

// Interval is one contiguous slice of execution.
type Interval struct {
	Index   int
	Start   uint64 // dynamic instruction count at interval start
	End     uint64
	PhaseID int // marker index that began the interval, or ProloguePhase
	BBV     bbv.Vector
	Perf    uarch.Counters // metrics accumulated during this interval
}

// Len reports the interval's instruction count.
func (iv *Interval) Len() uint64 { return iv.End - iv.Start }

// CPI reports the interval's cycles per instruction.
func (iv *Interval) CPI() float64 { return iv.Perf.CPI() }

// Result is a segmented, measured execution.
type Result struct {
	Intervals    []*Interval
	Total        uarch.Counters
	Instructions uint64
	NumBlocks    int
	MarkerFires  uint64
}

// TrueCPI reports the whole-execution CPI.
func (r *Result) TrueCPI() float64 { return r.Total.CPI() }

// Config selects how to run and cut an execution.
type Config struct {
	Prog *minivm.Program
	Args []int64
	CPU  uarch.Config

	// FixedLen cuts every FixedLen instructions when nonzero; otherwise
	// Markers must be set and intervals are cut at marker firings.
	FixedLen uint64
	Markers  *core.MarkerSet

	// SkipBBV disables basic-block-vector collection (faster when only
	// CPI/miss metrics are needed).
	SkipBBV bool

	// Sink, when non-nil, switches Run into streaming mode: finished
	// intervals are handed to Sink in chunks of up to ChunkSize as the
	// execution proceeds, and Result.Intervals stays nil. The chunk and
	// every Interval in it — including BBV storage — are owned by the
	// tracer and recycled after Sink returns; a sink must finish with (or
	// deep-copy) anything it keeps. Working memory is then bounded by the
	// chunk instead of the trace. A Sink error aborts the run. A Sink
	// panic is not recovered: it propagates to Run's caller, after any
	// goroutine Run started has been stopped and joined.
	Sink func(chunk []Interval) error

	// ChunkSize is the streaming chunk capacity in intervals (default 256).
	// Ignored when Sink is nil.
	ChunkSize int

	// Scale amplifies the trace by executing the program Scale times,
	// producing one Scale×-long segmented execution. Each repetition is
	// an independent cold run — machine state, timing model (caches,
	// predictor, counters), cutter grid, and detector occurrence counts
	// all reset at the boundary, and the repetition's final interval is
	// closed there — tiled end to end on the instruction axis. Identical
	// repetitions therefore produce identical interval sequences, which
	// is what makes the amplified trace reproducible rep by rep (and lets
	// Workers fan repetitions out without changing a single byte of
	// output). 0 or 1 means a single execution.
	Scale int

	// Workers is the number of goroutines the run may use: 0 (the
	// default) means runtime.GOMAXPROCS(0), 1 the serial in-line path,
	// and 2 or more the pipeline-parallel engine (engine.go) — trace
	// production decoupled from analysis through a bounded ring of event
	// buffers (single execution), or Scale repetitions fanned over
	// min(Workers, Scale) machine instances and merged in rep-major order
	// (amplified execution). Streaming and materializing runs alike are
	// bit-identical to the serial path at any worker count; only
	// wall-clock changes. Negative is an error. A caller that already
	// runs several traces at once passes each its par.Share.
	Workers int
}

// collector owns the interval state and implements the cut logic.
type collector struct {
	cpu     *uarch.CPU
	acc     *bbv.Accumulator
	skipBBV bool

	// sink non-nil selects streaming mode: the arena doubles as the
	// delivery chunk, flushed and recycled (with the BBV snapshot chunks)
	// when full, and intervals stays nil.
	sink func(chunk []Interval) error
	err  error // first sink error; poisons the rest of the run

	intervals []*Interval
	// arena is the current Interval allocation chunk. In materializing
	// mode Interval pointers escape into the Result, so cut never reuses
	// storage — it appends into the chunk and starts a fresh one when
	// full, amortizing what used to be one heap allocation per interval
	// down to one per chunk (finished chunks stay alive through the
	// pointers into them). In streaming mode the one arena is reused for
	// the life of the run.
	arena    []Interval
	count    int // intervals cut so far (Index source in both modes)
	lastCut  uint64
	lastPerf uarch.Counters
	curPhase int
}

// intervalChunk is the Interval arena granularity.
const intervalChunk = 256

// perfBlockObs folds the timing model's per-block accounting and the BBV
// accumulator touch into a single observer call on the tracing hot path.
type perfBlockObs struct {
	minivm.NopObserver
	cpu *uarch.CPU
	acc *bbv.Accumulator
}

// ObservedEvents implements minivm.EventMasker.
func (o *perfBlockObs) ObservedEvents() minivm.EventMask { return minivm.EvBlock }

// OnBlock implements minivm.Observer.
func (o *perfBlockObs) OnBlock(b *minivm.Block) {
	o.cpu.OnBlock(b)
	o.acc.Touch(b.ID, b.Weight())
}

func (c *collector) cut(phase int, at uint64) {
	if at == c.lastCut {
		// Several markers firing at the same instant (e.g. a loop-entry
		// edge and its first iteration): the innermost firing defines the
		// new interval's phase; no zero-length interval is recorded.
		c.curPhase = phase
		return
	}
	now := c.cpu.Counters()
	iv := Interval{
		Index:   c.count,
		Start:   c.lastCut,
		End:     at,
		PhaseID: c.curPhase,
		Perf:    now.Sub(c.lastPerf),
	}
	if !c.skipBBV {
		iv.BBV = c.acc.Snapshot()
	}
	switch {
	case c.sink == nil:
		if len(c.arena) == cap(c.arena) {
			c.arena = make([]Interval, 0, intervalChunk)
		}
		c.arena = append(c.arena, iv)
		c.intervals = append(c.intervals, &c.arena[len(c.arena)-1])
	case c.err != nil:
		// A sink error already poisoned the run; drop the interval and
		// recycle its storage so the doomed remainder of the execution
		// cannot grow memory before Run surfaces the error.
		c.arena = c.arena[:0]
		if !c.skipBBV {
			c.acc.Rewind()
		}
	default:
		c.arena = append(c.arena, iv)
		if len(c.arena) == cap(c.arena) {
			c.flush()
		}
	}
	c.count++
	obsIntervalLens.Observe(at - c.lastCut)
	c.lastCut = at
	c.lastPerf = now
	c.curPhase = phase
}

// flush delivers the buffered chunk to the sink and recycles its storage
// (the Interval arena and the BBV snapshot chunks backing the vectors).
func (c *collector) flush() {
	if c.sink == nil || len(c.arena) == 0 || c.err != nil {
		return
	}
	if err := c.sink(c.arena); err != nil {
		c.err = err
	}
	c.arena = c.arena[:0]
	if !c.skipBBV {
		c.acc.Rewind()
	}
}

// runTotals are the totals of a run, or of one repetition of it.
type runTotals struct {
	instrs uint64
	perf   uarch.Counters
	fires  uint64
}

func (t runTotals) add(o runTotals) runTotals {
	return runTotals{instrs: t.instrs + o.instrs, perf: t.perf.Add(o.perf), fires: t.fires + o.fires}
}

// analysisStack is the one place an analysis run is wired: the timing
// model, the interval collector, and the boundary source — marker
// detector or fixed-length cutter — whose firings drive the collector's
// cuts. The serial path and every rep-parallel worker run it through
// repeat; the record/replay split replays events into its components.
type analysisStack struct {
	cpu   *uarch.CPU
	col   *collector
	det   *core.Detector // marker cutting, or
	fixed *FixedCutter   // fixed-length cutting

	// repInstr and repIndex locate the running repetition's start on the
	// stack's own instruction and interval-index axes.
	repInstr uint64
	repIndex int
}

// newAnalysisStack builds the stack for cfg; the collector streams
// chunks to sink, or materializes intervals when sink is nil.
func newAnalysisStack(cfg Config, sink func(chunk []Interval) error) *analysisStack {
	cpu := uarch.NewCPU(cfg.CPU, cfg.Prog)
	col := &collector{
		cpu:      cpu,
		acc:      bbv.NewAccumulator(cfg.Prog.NumBlocks),
		skipBBV:  cfg.SkipBBV,
		sink:     sink,
		curPhase: ProloguePhase,
	}
	if sink != nil {
		chunk := cfg.ChunkSize
		if chunk <= 0 {
			chunk = intervalChunk
		}
		col.arena = make([]Interval, 0, chunk)
	}
	s := &analysisStack{cpu: cpu, col: col}
	if cfg.FixedLen > 0 {
		s.fixed = NewFixedCutter(cfg.FixedLen, func(at uint64) {
			col.cut(ProloguePhase, at)
		})
	} else {
		s.det = core.NewDetector(cfg.Prog, nil, cfg.Markers, col.cut)
	}
	return s
}

// fired reports the marker firings so far (none when cutting at fixed
// lengths).
func (s *analysisStack) fired() uint64 {
	if s.det == nil {
		return 0
	}
	return s.det.TotalFired()
}

// repeat executes repetitions first, first+stride, ... of cfg's Scale on
// one machine wired to the stack: the serial Scale loop is repeat(cfg, 0,
// 1, nil), a rep-parallel worker's share is repeat(cfg, w, W, done).
// Each repetition is an independent cold run — at the boundary the
// machine and every observer reset (timing model cold, cutter grid
// rebased, detector occurrence counts cleared) — tiled end to end on the
// stack's instruction axis, so identical repetitions reproduce the same
// interval sequence. A repetition's final interval is closed and its
// chunk flushed when it ends; done, if set, then receives that
// repetition's totals. repeat returns the sum over its repetitions and
// stops at the first run, sink, or done error.
func (s *analysisStack) repeat(cfg Config, first, stride int, done func(runTotals) error) (runTotals, error) {
	// Named to avoid shadowing the imported obs metrics package (a past
	// bug; shadow_test.go keeps it from returning).
	var observers minivm.MultiObserver
	if s.det != nil {
		observers = append(observers, s.det)
	} else {
		observers = append(observers, s.fixed)
	}
	if cfg.SkipBBV {
		observers = append(observers, s.cpu)
	} else {
		// Fuse the timing model's block accounting with BBV collection into
		// one dispatch, and strip EvBlock from the CPU's own registration so
		// the machine makes two observer calls per block instead of three.
		observers = append(observers,
			&perfBlockObs{cpu: s.cpu, acc: s.col.acc},
			minivm.Masked(s.cpu, minivm.EvBranch|minivm.EvMem))
	}
	m := minivm.NewMachine(cfg.Prog, observers)

	var sum runTotals
	for rep := first; rep < max(cfg.Scale, 1); rep += stride {
		if rep != first {
			s.cpu.Reset()
			s.col.lastPerf = uarch.Counters{}
			m.Reset()
			if s.det != nil {
				if err := s.det.Restart(); err != nil {
					return sum, fmt.Errorf("trace: scale restart: %w", err)
				}
			} else {
				s.fixed.Rebase()
			}
		}
		s.repInstr, s.repIndex = sum.instrs, s.col.count
		if _, err := m.Run(cfg.Args...); err != nil {
			return sum, fmt.Errorf("trace: run failed: %w", err)
		}
		t := runTotals{instrs: m.Instructions(), perf: s.cpu.Counters(), fires: s.fired() - sum.fires}
		sum = sum.add(t)
		s.col.cut(ProloguePhase, sum.instrs)
		s.col.flush()
		if s.col.err != nil {
			return sum, fmt.Errorf("trace: sink: %w", s.col.err)
		}
		if done != nil {
			if err := done(t); err != nil {
				return sum, err
			}
		}
	}
	return sum, nil
}

// finish builds a completed run's Result (intervals is nil when
// streaming) and records the run in the segmentation metrics.
func finish(cfg Config, intervals []*Interval, count int, t runTotals) *Result {
	obsTraceRuns.Inc()
	obsIntervals.Add(uint64(count))
	obsMarkerFires.Add(t.fires)
	return &Result{
		Intervals:    intervals,
		Total:        t.perf,
		Instructions: t.instrs,
		NumBlocks:    cfg.Prog.NumBlocks,
		MarkerFires:  t.fires,
	}
}

// Run executes the program under the timing model, cutting intervals per
// cfg, and returns the segmented result.
func Run(cfg Config) (*Result, error) {
	sp := obs.StartSpan("trace.exec", "")
	defer sp.End()
	if cfg.Prog == nil {
		return nil, fmt.Errorf("trace: nil program")
	}
	if cfg.FixedLen == 0 && cfg.Markers == nil {
		return nil, fmt.Errorf("trace: need FixedLen or Markers")
	}
	if cfg.CPU.L1.Sets == 0 {
		cfg.CPU = uarch.DefaultConfig()
	}
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("trace: negative Workers (%d)", cfg.Workers)
	}
	if cfg.Workers == 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Workers > 1 {
		// Pipeline-parallel engine (engine.go): overlap trace production
		// with analysis, and fan Scale repetitions over workers.
		// Bit-identical to the serial path below.
		return runEngine(cfg)
	}
	s := newAnalysisStack(cfg, cfg.Sink)
	t, err := s.repeat(cfg, 0, 1, nil)
	if err != nil {
		return nil, err
	}
	return finish(cfg, s.col.intervals, s.col.count, t), nil
}
