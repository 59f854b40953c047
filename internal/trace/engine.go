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
//   - Single execution (Scale <= 1): the record/replay split,
//     minivm.RunSplit. The interpreter runs on a producer goroutine and
//     records the events the run's analysisStack consumes; the caller
//     goroutine replays them into the stack's observer methods, the calls
//     the serial machine makes (cutter/detector, timing model, BBV
//     accumulator, collector, and Sink or the materialized Result).
//     Replaying the total event order reproduces every cut, counter, and
//     snapshot by construction.
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

// repRingChunks is each rep worker's ring depth: one chunk in flight,
// one being filled, one spare absorbing jitter.
const repRingChunks = 3

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

// runSplit is the single-execution regime: minivm.RunSplit interprets on
// a producer goroutine and replays the events into the analysis stack on
// this one, stopping the replay once a sink error poisons the collector.
func runSplit(cfg Config) (*Result, error) {
	// The analysis stack is constructed exactly as the serial path
	// constructs it; in marker mode the detector's walker fires
	// entry-edge opens here, before any event replays, just as
	// NewDetector does before the serial machine starts.
	s := newAnalysisStack(cfg, cfg.Sink)
	total, err := minivm.RunSplit(cfg.Prog, s, func() bool { return s.col.err != nil }, cfg.Args...)
	// Same precedence as the serial path: a failed execution trumps a
	// sink error (the poisoned collector just kept it from growing memory
	// in the meantime), and replay drift comes last.
	if err != nil && !errors.Is(err, minivm.ErrReplayDrift) {
		return nil, fmt.Errorf("trace: run failed: %w", err)
	}
	if s.col.err != nil {
		return nil, fmt.Errorf("trace: sink: %w", s.col.err)
	}
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
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
		outs[w] = make(chan *repChunk, repRingChunks)
		frees[w] = make(chan *repChunk, repRingChunks)
		for i := 0; i < repRingChunks; i++ {
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
