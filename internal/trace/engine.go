package trace

import (
	"errors"
	"fmt"
	"sync"

	"phasemark/internal/bbv"
	"phasemark/internal/minivm"
)

// This file is the pipeline-parallel engine behind Config.Workers >= 2.
// Two regimes, both bit-identical to the serial path in Run, streaming
// or materializing:
//
//   - Single execution (Scale <= 1): a record/replay split. The
//     interpreter runs on a producer goroutine with one flat observer
//     that encodes every event as a tagged word into a bounded ring of
//     buffers; the caller goroutine replays the words into the run's
//     analysisStack in the exact observer sequence the serial path uses
//     (cutter/detector, timing model, BBV accumulator, collector, and
//     Sink or the materialized Result).
//     The ring gives backpressure — the interpreter traces ahead while
//     analysis consumes — and replaying the total event order reproduces
//     every cut, counter, and snapshot by construction.
//
//   - Amplified execution (Scale >= 2): rep-parallel workers. Each of
//     min(Workers, Scale) workers owns an analysisStack and runs the
//     serial repetition loop (analysisStack.repeat) with stride W:
//     repetitions w, w+W, w+2W, ... as independent cold executions
//     (Scale's contract), streaming rep-local chunks through a bounded
//     per-worker ring. The caller-side reducer consumes chunks rep-major
//     — all of rep 0, then rep 1, ... — rebases them onto the global
//     instruction axis, and feeds the Sink in order or, materializing,
//     keeps them as the Result's intervals.
//     Because every repetition is cold, rep r's interval sequence does
//     not depend on which worker ran it or when, so the merged stream
//     equals the serial one byte for byte. Both loops flush each
//     repetition's tail, though chunk partitioning was never part of
//     the streaming contract.
//
// Neither regime returns while a goroutine it started is still running.
const (
	// eventBufWords is the capacity of one event buffer (~256KB). Big
	// enough that handoff synchronization is negligible against the
	// ~1M machine events it batches, small enough that the ring keeps
	// working memory bounded.
	eventBufWords = 1 << 15
	// engineRingBufs is the ring depth for both regimes: one buffer in
	// flight, one being filled, one spare absorbing jitter.
	engineRingBufs = 3
)

// Event words: tag in the low 3 bits, payload shifted above. Block and
// branch events carry the block ID, memory events the byte address
// (always < 2^61: addresses are word-indexed into bounded global
// memory), call events the callee proc ID above the 32-bit site block
// ID, returns the callee proc ID.
const (
	evBlock = iota
	evBranchT
	evBranchN
	evLoad
	evStore
	evCall
	evRet

	evTagBits = 3
	evTagMask = 1<<evTagBits - 1
)

// errEngineStopped poisons worker-side collectors when the reducer
// aborts; it never escapes to the caller (the originating error does).
var errEngineStopped = errors.New("trace: engine stopped")

// runEngine dispatches a run with Workers >= 2.
func runEngine(cfg Config) (*Result, error) {
	if runs := max(cfg.Scale, 1); runs >= 2 {
		return runReps(cfg, runs)
	}
	return runSplit(cfg)
}

// eventRecorder is the producer-side observer: it packs every machine
// event into the current buffer and hands full buffers to the replay
// side, blocking on the free ring for backpressure. After a stop it
// keeps the machine runnable but discards events (the interpreter
// cannot be interrupted mid-Run; the doomed remainder executes without
// growing memory, mirroring the serial collector's poisoned mode).
type eventRecorder struct {
	mask    minivm.EventMask
	buf     []uint64
	filled  chan []uint64
	free    chan []uint64
	stop    <-chan struct{}
	stopped bool
}

// ObservedEvents implements minivm.EventMasker.
func (r *eventRecorder) ObservedEvents() minivm.EventMask { return r.mask }

func (r *eventRecorder) emit(w uint64) {
	if len(r.buf) == cap(r.buf) {
		r.handoff()
	}
	r.buf = append(r.buf, w)
}

// handoff ships the full buffer and acquires an empty one.
func (r *eventRecorder) handoff() {
	if r.stopped {
		r.buf = r.buf[:0]
		return
	}
	select {
	case r.filled <- r.buf:
	case <-r.stop:
		r.stopped = true
		r.buf = r.buf[:0]
		return
	}
	select {
	case nb := <-r.free:
		r.buf = nb[:0]
	case <-r.stop:
		// The shipped buffer is gone and no free one is coming back;
		// record into a throwaway so the machine can finish.
		r.stopped = true
		r.buf = make([]uint64, 0, eventBufWords)
	}
}

// flush ships a final partial buffer (producer end of run).
func (r *eventRecorder) flush() {
	if r.stopped || len(r.buf) == 0 {
		return
	}
	select {
	case r.filled <- r.buf:
		r.buf = nil
	case <-r.stop:
		r.stopped = true
	}
}

func (r *eventRecorder) OnBlock(b *minivm.Block) {
	r.emit(uint64(b.ID)<<evTagBits | evBlock)
}

func (r *eventRecorder) OnBranch(b *minivm.Block, taken bool) {
	t := uint64(evBranchN)
	if taken {
		t = evBranchT
	}
	r.emit(uint64(b.ID)<<evTagBits | t)
}

func (r *eventRecorder) OnMem(addr uint64, write bool) {
	t := uint64(evLoad)
	if write {
		t = evStore
	}
	r.emit(addr<<evTagBits | t)
}

func (r *eventRecorder) OnCall(site *minivm.Block, callee *minivm.Proc) {
	r.emit((uint64(callee.ID)<<32|uint64(uint32(site.ID)))<<evTagBits | evCall)
}

func (r *eventRecorder) OnReturn(callee *minivm.Proc) {
	r.emit(uint64(callee.ID)<<evTagBits | evRet)
}

// blockTable builds a dense block-ID -> *Block index (Program.BlockByID
// is a linear scan; replay needs O(1)).
func blockTable(p *minivm.Program) []*minivm.Block {
	t := make([]*minivm.Block, p.NumBlocks)
	for _, pr := range p.Procs {
		for _, b := range pr.Blocks {
			if b.ID >= 0 && b.ID < len(t) {
				t[b.ID] = b
			}
		}
	}
	return t
}

// runSplit is the single-execution record/replay regime: one producer
// goroutine interprets, the caller replays events through the analysis
// stack in the serial observer order.
func runSplit(cfg Config) (*Result, error) {
	mask := minivm.EvBlock | minivm.EvBranch | minivm.EvMem
	if cfg.FixedLen == 0 {
		mask |= minivm.EvCall | minivm.EvReturn
	}
	stop := make(chan struct{})
	rec := &eventRecorder{
		mask:   mask,
		buf:    make([]uint64, 0, eventBufWords),
		filled: make(chan []uint64, engineRingBufs),
		free:   make(chan []uint64, engineRingBufs),
		stop:   stop,
	}
	for i := 1; i < engineRingBufs; i++ {
		rec.free <- make([]uint64, 0, eventBufWords)
	}

	m := minivm.NewMachine(cfg.Prog, rec)
	var prodErr error
	var prodInstrs uint64
	go func() {
		_, err := m.Run(cfg.Args...)
		if err == nil {
			rec.flush()
		}
		prodErr = err
		prodInstrs = m.Instructions()
		close(rec.filled) // happens-after the writes above
	}()
	// join stops the producer's deliveries and waits for it to finish,
	// draining what is in flight without replaying it. It runs on every
	// return path, a sink panic included.
	var joinOnce sync.Once
	join := func() {
		joinOnce.Do(func() {
			close(stop)
			for range rec.filled {
			}
		})
	}
	defer join()

	// The analysis stack is constructed on the consumer side exactly as
	// the serial path constructs it; in marker mode the detector's
	// walker fires entry-edge opens here, before any event replays,
	// just as NewDetector does before the serial machine starts.
	s := newAnalysisStack(cfg, cfg.Sink)
	blocks := blockTable(cfg.Prog)
	procs := cfg.Prog.Procs
	skip := cfg.SkipBBV
	var total uint64
	for buf := range rec.filled {
		for _, w := range buf {
			payload := w >> evTagBits
			switch w & evTagMask {
			case evBlock:
				b := blocks[payload]
				// Serial dispatch order per block: cutter/detector first
				// (a cut excludes the block that begins the next
				// interval), then the timing model and BBV touch.
				if s.det != nil {
					s.det.OnBlock(b)
				} else {
					s.fixed.OnBlock(b)
				}
				s.cpu.OnBlock(b)
				if !skip {
					s.col.acc.Touch(b.ID, b.Weight())
				}
				total += uint64(b.Weight())
			case evBranchT:
				s.cpu.OnBranch(blocks[payload], true)
			case evBranchN:
				s.cpu.OnBranch(blocks[payload], false)
			case evLoad:
				s.cpu.OnMem(payload, false)
			case evStore:
				s.cpu.OnMem(payload, true)
			case evCall:
				s.det.OnCall(blocks[uint32(payload)], procs[payload>>32])
			case evRet:
				s.det.OnReturn(procs[payload])
			}
		}
		rec.free <- buf[:0]
		if s.col.err != nil {
			break // sink error: stop replaying
		}
	}
	join()
	if prodErr != nil {
		// Same precedence as the serial path: a failed execution trumps
		// a sink error (the poisoned collector just kept it from
		// growing memory in the meantime).
		return nil, fmt.Errorf("trace: run failed: %w", prodErr)
	}
	if s.col.err != nil {
		return nil, fmt.Errorf("trace: sink: %w", s.col.err)
	}
	if total != prodInstrs {
		return nil, fmt.Errorf("trace: engine replay drift: replayed %d instructions, machine ran %d", total, prodInstrs)
	}

	s.col.cut(ProloguePhase, total)
	s.col.flush()
	if s.col.err != nil {
		return nil, fmt.Errorf("trace: sink: %w", s.col.err)
	}
	return finish(cfg, s.col.intervals, s.col.count, runTotals{instrs: total, perf: s.cpu.Counters(), fires: s.fired()}), nil
}

// repChunk is the rep-parallel transfer unit: a deep copy of one
// streamed chunk in rep-local coordinates (the reducer rebases onto the
// global axis), with its BBV entries carved from the chunk-owned
// idx/val arenas. A chunk with last set closes a repetition and carries
// its totals; err reports a worker failure.
type repChunk struct {
	ivs  []Interval
	idx  []int32
	val  []float64
	last bool
	tot  runTotals // repetition totals (last only)
	err  error
}

// fill deep-copies chunk into tc, translating worker-cumulative
// positions into rep-local ones. Two passes so the idx/val arenas are
// sized before any vector is carved from them (growing mid-copy would
// invalidate earlier carves); at steady state the arenas are warm and
// the copy allocates nothing.
func (tc *repChunk) fill(chunk []Interval, instrBase uint64, indexBase int) {
	entries := 0
	for i := range chunk {
		entries += len(chunk[i].BBV.Idx)
	}
	if cap(tc.idx) < entries {
		tc.idx = make([]int32, 0, entries)
		tc.val = make([]float64, 0, entries)
	}
	if cap(tc.ivs) < len(chunk) {
		tc.ivs = make([]Interval, 0, len(chunk))
	}
	tc.idx, tc.val = tc.idx[:0], tc.val[:0]
	tc.ivs = tc.ivs[:0]
	for i := range chunk {
		iv := chunk[i]
		iv.Index -= indexBase
		iv.Start -= instrBase
		iv.End -= instrBase
		if n := len(iv.BBV.Idx); n > 0 {
			lo := len(tc.idx)
			tc.idx = append(tc.idx, iv.BBV.Idx...)
			tc.val = append(tc.val, iv.BBV.Val...)
			iv.BBV = bbv.Vector{Idx: tc.idx[lo : lo+n : lo+n], Val: tc.val[lo : lo+n : lo+n]}
		}
		tc.ivs = append(tc.ivs, iv)
	}
}

// repWorker runs repetitions w, w+W, w+2W, ... through the serial
// repetition loop on its own analysis stack, shipping rep-local chunks
// and each repetition's closing totals through its ring.
func repWorker(cfg Config, w, W int, out chan<- *repChunk, free <-chan *repChunk, stop <-chan struct{}) {
	defer close(out)
	var s *analysisStack
	ship := func(chunk []Interval, last bool, t runTotals) error {
		var tc *repChunk
		select {
		case tc = <-free:
		case <-stop:
			return errEngineStopped
		}
		tc.fill(chunk, s.repInstr, s.repIndex)
		tc.last, tc.tot = last, t
		select {
		case out <- tc:
			return nil
		case <-stop:
			return errEngineStopped
		}
	}
	s = newAnalysisStack(cfg, func(chunk []Interval) error {
		return ship(chunk, false, runTotals{})
	})
	_, err := s.repeat(cfg, w, W, func(t runTotals) error {
		return ship(nil, true, t)
	})
	if err != nil && !errors.Is(err, errEngineStopped) {
		// A dedicated chunk, never part of the ring, so no acquire can
		// deadlock the report.
		select {
		case out <- &repChunk{err: err}:
		case <-stop:
		}
	}
}

// runReps is the amplified-execution regime: repetitions fan out over
// min(Workers, Scale) workers; the reducer stitches their rep-local
// streams back into the one global stream the serial path produces. A
// materializing run keeps every rebased chunk (a deep copy, see fill)
// and hands the worker a fresh one in its place.
// Workers are stopped and joined on every return path, a sink panic
// included; a worker cannot abandon a repetition mid-interpretation, so
// an early return waits for at most each worker's current repetition.
func runReps(cfg Config, runs int) (*Result, error) {
	W := min(cfg.Workers, runs)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer func() {
		close(stop)
		wg.Wait()
	}()

	outs := make([]chan *repChunk, W)
	frees := make([]chan *repChunk, W)
	for w := 0; w < W; w++ {
		outs[w] = make(chan *repChunk, engineRingBufs)
		frees[w] = make(chan *repChunk, engineRingBufs)
		for i := 0; i < engineRingBufs; i++ {
			frees[w] <- &repChunk{}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			repWorker(cfg, w, W, outs[w], frees[w], stop)
		}()
	}

	var sum runTotals
	var index int
	var intervals []*Interval
	for rep := 0; rep < runs; rep++ {
		w := rep % W
		repCount := 0
		for {
			tc, ok := <-outs[w]
			if !ok {
				return nil, fmt.Errorf("trace: rep worker %d exited before repetition %d", w, rep)
			}
			if tc.err != nil {
				return nil, tc.err
			}
			if len(tc.ivs) > 0 {
				// Rebase rep-local coordinates onto the global axis: the
				// index and instruction bases advance by whole repetitions,
				// at the rep's closing chunk below.
				for i := range tc.ivs {
					tc.ivs[i].Index += index
					tc.ivs[i].Start += sum.instrs
					tc.ivs[i].End += sum.instrs
				}
				repCount += len(tc.ivs)
				if cfg.Sink == nil {
					for i := range tc.ivs {
						intervals = append(intervals, &tc.ivs[i])
					}
				} else if err := cfg.Sink(tc.ivs); err != nil {
					return nil, fmt.Errorf("trace: sink: %w", err)
				}
			}
			last := tc.last
			if last {
				sum = sum.add(tc.tot)
				index += repCount
			}
			if cfg.Sink == nil && len(tc.ivs) > 0 {
				tc = &repChunk{} // the Result keeps the filled one
			}
			frees[w] <- tc // ring slot back to the worker (never full; errors are off-ring)
			if last {
				break
			}
		}
	}
	return finish(cfg, intervals, index, sum), nil
}
