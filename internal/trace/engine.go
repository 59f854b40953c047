package trace

import (
	"errors"
	"fmt"
	"sync"

	"phasemark/internal/bbv"
)

// This file runs the repetitions of an amplified trace (Config.Scale >=
// 2). Each repetition is one fresh execution — analysisStack.run(cfg, 1)
// on a new stack and machine — so it is cold by construction, and its
// intervals carry repetition-local positions. One reducer, on the
// caller's goroutine, takes the repetitions in order, rebases their
// intervals onto the global axis and hands them to the Sink or keeps
// them. At Workers 1 the repetitions run one after another and feed the
// reducer inline. At two or more they fan out over min(Workers, Scale)
// workers, repetitions w, w+W, w+2W, ... on worker w, each shipping deep
// copies of its chunks through a bounded per-worker ring that the
// reducer drains rep-major. Because every repetition is cold, its
// interval sequence does not depend on which worker ran it or when, so
// the merged stream equals the serial one byte for byte; chunk
// partitioning was never part of the streaming contract.
//
// runReps does not return while a goroutine it started is still running.

// repRingChunks is each rep worker's ring depth: one chunk in flight,
// one being filled, one spare absorbing jitter.
const repRingChunks = 3

// errEngineStopped poisons worker-side collectors when the reducer
// aborts; it never escapes to the caller (the originating error does).
var errEngineStopped = errors.New("trace: engine stopped")

// reducer stitches the repetitions' intervals onto the global axis.
type reducer struct {
	sink      func(chunk []Interval) error
	base      runTotals   // totals of the repetitions already closed
	intervals []*Interval // the kept intervals, when materializing
}

// add rebases one chunk of the running repetition and hands it to the
// sink, returning the sink's error, or keeps it when materializing; a
// kept chunk must not be reused.
func (r *reducer) add(chunk []Interval) error {
	for i := range chunk {
		chunk[i].Index += r.base.intervals
		chunk[i].Start += r.base.instrs
		chunk[i].End += r.base.instrs
	}
	if r.sink != nil {
		return r.sink(chunk)
	}
	for i := range chunk {
		r.intervals = append(r.intervals, &chunk[i])
	}
	return nil
}

// runReps executes an amplified run and builds its Result.
func runReps(cfg Config) (*Result, error) {
	r := &reducer{sink: cfg.Sink}
	var err error
	if cfg.Workers == 1 {
		err = r.serial(cfg)
	} else {
		err = r.parallel(cfg, min(cfg.Workers, cfg.Scale))
	}
	if err != nil {
		return nil, err
	}
	return finish(cfg, r.intervals, r.base), nil
}

// serial runs the repetitions one after another on this goroutine. A
// streaming repetition's collector delivers its chunks straight to the
// reducer; a materializing one hands over deep copies, which the reducer
// keeps.
func (r *reducer) serial(cfg Config) error {
	sink := r.add
	if r.sink == nil {
		sink = func(chunk []Interval) error {
			var tc repChunk
			tc.fill(chunk)
			return r.add(tc.ivs)
		}
	}
	for rep := 0; rep < cfg.Scale; rep++ {
		t, err := newAnalysisStack(cfg, sink).run(cfg, 1)
		if err != nil {
			return err
		}
		r.base = r.base.add(t)
	}
	return nil
}

// repChunk is the rep-parallel transfer unit: a deep copy of one
// streamed chunk, with its BBV entries carved from the chunk-owned
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

// fill deep-copies chunk into tc. Two passes so the idx/val arenas are
// sized before any vector is carved from them (growing mid-copy would
// invalidate earlier carves); at steady state the arenas are warm and
// the copy allocates nothing.
func (tc *repChunk) fill(chunk []Interval) {
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
		if n := len(iv.BBV.Idx); n > 0 {
			lo := len(tc.idx)
			tc.idx = append(tc.idx, iv.BBV.Idx...)
			tc.val = append(tc.val, iv.BBV.Val...)
			iv.BBV = bbv.Vector{Idx: tc.idx[lo : lo+n : lo+n], Val: tc.val[lo : lo+n : lo+n]}
		}
		tc.ivs = append(tc.ivs, iv)
	}
}

// repWorker runs repetitions w, w+W, w+2W, ..., each a fresh run,
// shipping its chunks and each repetition's closing totals through its
// ring.
func repWorker(cfg Config, w, W int, out chan<- *repChunk, free <-chan *repChunk, stop <-chan struct{}) {
	defer close(out)
	ship := func(chunk []Interval, last bool, t runTotals) error {
		var tc *repChunk
		select {
		case tc = <-free:
		case <-stop:
			return errEngineStopped
		}
		tc.fill(chunk)
		tc.last, tc.tot = last, t
		select {
		case out <- tc:
			return nil
		case <-stop:
			return errEngineStopped
		}
	}
	sink := func(chunk []Interval) error { return ship(chunk, false, runTotals{}) }
	for rep := w; rep < cfg.Scale; rep += W {
		t, err := newAnalysisStack(cfg, sink).run(cfg, 1)
		if err == nil {
			err = ship(nil, true, t)
		}
		if err != nil {
			if !errors.Is(err, errEngineStopped) {
				// A dedicated chunk, never part of the ring, so no
				// acquire can deadlock the report.
				select {
				case out <- &repChunk{err: err}:
				case <-stop:
				}
			}
			return
		}
	}
}

// parallel fans the repetitions out over W workers and reduces their
// streams rep-major. A materializing run keeps every chunk it is handed
// (a deep copy, see fill) and gives the worker a fresh one in its place.
// Workers are stopped and joined on every return path, a sink panic
// included; a worker cannot abandon a repetition mid-interpretation, so
// an early return waits for at most each worker's current repetition.
func (r *reducer) parallel(cfg Config, W int) error {
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

	var sinkErr error
	for rep := 0; rep < cfg.Scale && sinkErr == nil; rep++ {
		w := rep % W
		for {
			tc, ok := <-outs[w]
			if !ok {
				return fmt.Errorf("trace: rep worker %d exited before repetition %d", w, rep)
			}
			if tc.err != nil {
				return tc.err
			}
			last := tc.last
			switch {
			case last:
				r.base = r.base.add(tc.tot)
			case sinkErr != nil:
				// The sink failed earlier in this repetition: drain the
				// rest unobserved, so that its execution's error, if any,
				// takes precedence, as on the serial path.
			default:
				if err := r.add(tc.ivs); err != nil {
					sinkErr = fmt.Errorf("trace: sink: %w", err)
				} else if r.sink == nil {
					tc = &repChunk{} // the reducer keeps the filled one
				}
			}
			frees[w] <- tc // ring slot back to the worker (never full; errors are off-ring)
			if last {
				break
			}
		}
	}
	return sinkErr
}
