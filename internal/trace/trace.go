// Package trace segments a program's execution into intervals — fixed
// length (the prior-work baseline) or variable length cut at software
// phase-marker firings — collecting a basic block vector and timing-model
// counters for each interval. It also provides the paper's homogeneity
// metric: the weighted per-phase coefficient of variation (§3.1).
package trace

import (
	"errors"
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

	// Workers is the number of goroutines the run may use: 0 (the
	// default) means runtime.GOMAXPROCS(0), 1 the serial in-line path,
	// and 2 or more the record/replay split, minivm.RunSplit, which
	// decouples trace production from analysis. Streaming and
	// materializing runs alike are bit-identical to the serial path at
	// any worker count; only wall-clock changes. Negative is an error. A
	// caller that already runs several traces at once passes each its
	// par.Share.
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

// intervalChunk is the materializing Interval arena granularity and the
// default ChunkSize.
const intervalChunk = 256

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

// analysisStack is the one place an analysis run is wired: the timing
// model, the interval collector, and the boundary source — marker
// detector or fixed-length cutter — whose firings drive the collector's
// cuts. It observes one execution, driven by run: the serial machine
// calls its methods, and the record/replay split replays recorded events
// into the same methods.
type analysisStack struct {
	cpu   *uarch.CPU
	col   *collector
	det   *core.Detector // marker cutting, or
	fixed *FixedCutter   // fixed-length cutting
}

// newAnalysisStack builds the stack for cfg; the collector streams
// chunks to cfg.Sink, or materializes intervals when it is nil. Marker
// cutting fails on a program the detector cannot serve (see
// core.NewDetector).
func newAnalysisStack(cfg Config) (*analysisStack, error) {
	cpu := uarch.NewCPU(cfg.CPU, cfg.Prog)
	col := &collector{
		cpu:      cpu,
		acc:      bbv.NewAccumulator(cfg.Prog.NumBlocks),
		skipBBV:  cfg.SkipBBV,
		sink:     cfg.Sink,
		curPhase: ProloguePhase,
	}
	if cfg.Sink != nil {
		col.arena = make([]Interval, 0, cfg.ChunkSize)
	}
	s := &analysisStack{cpu: cpu, col: col}
	if cfg.FixedLen > 0 {
		s.fixed = NewFixedCutter(cfg.FixedLen, func(at uint64) {
			col.cut(ProloguePhase, at)
		})
	} else {
		det, err := core.NewDetector(cfg.Prog, nil, cfg.Markers, col.cut)
		if err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
		s.det = det
	}
	return s, nil
}

// ObservedEvents implements minivm.EventMasker: the timing model's blocks,
// branches and memory references, plus calls and returns when a detector
// cuts at markers.
func (s *analysisStack) ObservedEvents() minivm.EventMask {
	ev := minivm.EvBlock | minivm.EvBranch | minivm.EvMem
	if s.det != nil {
		ev |= minivm.EvCall | minivm.EvReturn
	}
	return ev
}

// OnBlock implements minivm.Observer in the §3.1 order: the boundary
// source first, so a cut closes the interval before the block that
// begins the next one, then the timing model and the BBV touch.
func (s *analysisStack) OnBlock(b *minivm.Block) {
	if s.det != nil {
		s.det.OnBlock(b)
	} else {
		s.fixed.OnBlock(b)
	}
	s.cpu.OnBlock(b)
	if !s.col.skipBBV {
		s.col.acc.Touch(b.ID, b.Weight())
	}
}

// OnCall implements minivm.Observer (marker cutting only).
func (s *analysisStack) OnCall(site *minivm.Block, callee *minivm.Proc) { s.det.OnCall(site, callee) }

// OnReturn implements minivm.Observer (marker cutting only).
func (s *analysisStack) OnReturn(callee *minivm.Proc) { s.det.OnReturn(callee) }

// OnBranch implements minivm.Observer.
func (s *analysisStack) OnBranch(b *minivm.Block, taken bool) { s.cpu.OnBranch(b, taken) }

// OnMem implements minivm.Observer.
func (s *analysisStack) OnMem(addr uint64, write bool) { s.cpu.OnMem(addr, write) }

// fired reports the marker firings so far (none when cutting at fixed
// lengths).
func (s *analysisStack) fired() uint64 {
	if s.det == nil {
		return 0
	}
	return s.det.TotalFired()
}

// run drives one execution of cfg's program through the stack on
// minivm.RunWorkers at cfg.Workers: the serial machine at one worker, and
// at two or more the split, whose replay stops once a sink error poisons
// the collector. It then closes the final interval, flushes the last
// chunk, records the run in the segmentation metrics and builds its
// Result (Intervals is nil when streaming). Errors take one precedence: a
// failed execution, then a sink error (the poisoned collector only kept
// the doomed remainder from growing memory), then replay drift.
func (s *analysisStack) run(cfg Config) (*Result, error) {
	instrs, err := minivm.RunWorkers(cfg.Prog, s, cfg.Workers, func() bool { return s.col.err != nil }, cfg.Args...)
	if err != nil && !errors.Is(err, minivm.ErrReplayDrift) {
		return nil, fmt.Errorf("trace: run failed: %w", err)
	}
	if err == nil {
		s.col.cut(ProloguePhase, instrs)
		s.col.flush()
	}
	if s.col.err != nil {
		return nil, fmt.Errorf("trace: sink: %w", s.col.err)
	}
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	fires := s.fired()
	obsTraceRuns.Inc()
	obsIntervals.Add(uint64(s.col.count))
	obsMarkerFires.Add(fires)
	return &Result{
		Intervals:    s.col.intervals,
		Total:        s.cpu.Counters(),
		Instructions: instrs,
		NumBlocks:    cfg.Prog.NumBlocks,
		MarkerFires:  fires,
	}, nil
}

// Run executes the program under the timing model, cutting intervals per
// cfg, and returns the segmented result.
func Run(cfg Config) (*Result, error) {
	sp := obs.StartSpan("trace.exec", "")
	defer sp.End()
	if cfg.Prog == nil {
		return nil, fmt.Errorf("trace: nil program")
	}
	if err := cfg.Prog.Check(); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
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
	if cfg.ChunkSize <= 0 {
		cfg.ChunkSize = intervalChunk
	}
	s, err := newAnalysisStack(cfg)
	if err != nil {
		return nil, err
	}
	return s.run(cfg)
}
