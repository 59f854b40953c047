package trace

import (
	"fmt"
	"sync"
)

// This file runs the repetitions of an amplified trace (Config.Scale >=
// 2). Each repetition is one fresh execution — analysisStack.run(cfg, 1)
// on a new stack and machine — so it is cold by construction, and its
// intervals carry repetition-local positions. One reducer, on the
// caller's goroutine, takes the repetitions in order, rebases their
// intervals onto the global axis and hands them to the Sink or keeps
// them. At Workers 1 the repetitions run one after another on the
// caller's goroutine: a streaming one streams its chunks through the
// reducer as its collector fills them, a materializing one is kept
// whole. At two or more they fan out over W = min(Workers, Scale)
// workers, repetitions w, w+W, w+2W, ... on worker w, each run
// materializing and handed over whole — intervals, totals and error —
// through the worker's one-slot channel. So at most 2W+1 repetitions are
// resident: one running and one waiting per worker, and the one the
// reducer holds. Because every repetition is cold, its interval
// sequence does not depend on which worker ran it or when, so the
// merged stream equals the serial one byte for byte; a failed
// repetition reaches the sink as on the serial path too, its full
// chunks and then its error.
//
// runReps does not return while a goroutine it started is still running.

// repetition is one finished repetition: its intervals on its own axis
// (nil when it streamed them), its totals, and its error.
type repetition struct {
	intervals []*Interval
	tot       runTotals
	err       error
}

// runRep executes one repetition on a fresh stack whose collector
// streams to sink, or materializes when sink is nil.
func runRep(cfg Config, sink func(chunk []Interval) error) repetition {
	s := newAnalysisStack(cfg, sink)
	t, err := s.run(cfg, 1)
	return repetition{s.col.intervals, t, err}
}

// reducer stitches the repetitions' intervals onto the global axis.
type reducer struct {
	sink      func(chunk []Interval) error
	chunk     []Interval  // delivery buffer for whole repetitions, up to ChunkSize
	base      runTotals   // totals of the repetitions already closed
	intervals []*Interval // the kept intervals, when materializing
}

// rebase moves an interval of the running repetition onto the global
// axis.
func (r *reducer) rebase(iv *Interval) {
	iv.Index += r.base.intervals
	iv.Start += r.base.instrs
	iv.End += r.base.instrs
}

// stream is the collector sink of a streaming repetition running on
// this goroutine: it rebases each chunk and hands it on.
func (r *reducer) stream(chunk []Interval) error {
	for i := range chunk {
		r.rebase(&chunk[i])
	}
	return r.sink(chunk)
}

// take closes the next repetition in order: its materialized intervals
// are rebased and kept, or handed to the sink in chunks. Its execution
// error comes before a sink error, as in run.
func (r *reducer) take(p repetition) error {
	var sinkErr error
	switch {
	case r.sink == nil:
		for _, iv := range p.intervals {
			r.rebase(iv)
		}
		r.intervals = append(r.intervals, p.intervals...)
	case len(p.intervals) > 0:
		sinkErr = r.deliver(p.intervals, p.err != nil)
	}
	switch {
	case p.err != nil:
		return p.err
	case sinkErr != nil:
		return fmt.Errorf("trace: sink: %w", sinkErr)
	}
	r.base = r.base.add(p.tot)
	return nil
}

// deliver hands a whole repetition's intervals to the sink in chunks of
// up to cap(r.chunk) and returns the sink's error. Of a failed
// repetition only the full chunks are delivered, as its collector would
// have streamed them.
func (r *reducer) deliver(ivs []*Interval, failed bool) error {
	size := cap(r.chunk)
	if failed {
		ivs = ivs[:len(ivs)-len(ivs)%size]
	}
	for len(ivs) > 0 {
		n := min(len(ivs), size)
		r.chunk = r.chunk[:0]
		for _, iv := range ivs[:n] {
			r.rebase(iv)
			r.chunk = append(r.chunk, *iv)
		}
		if err := r.sink(r.chunk); err != nil {
			return err
		}
		ivs = ivs[n:]
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

// serial runs the repetitions one after another on this goroutine.
func (r *reducer) serial(cfg Config) error {
	var sink func(chunk []Interval) error
	if r.sink != nil {
		sink = r.stream
	}
	for rep := 0; rep < cfg.Scale; rep++ {
		if err := r.take(runRep(cfg, sink)); err != nil {
			return err
		}
	}
	return nil
}

// parallel fans the repetitions out over W workers and takes them in
// order. A worker stops after handing over a failed repetition, where
// the reducer returns. Workers are stopped and joined on every return
// path, a sink panic included; a worker cannot abandon a repetition
// mid-interpretation, so an early return waits for at most each
// worker's current repetition.
func (r *reducer) parallel(cfg Config, W int) error {
	if r.sink != nil {
		r.chunk = make([]Interval, 0, cfg.ChunkSize)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer func() {
		close(stop)
		wg.Wait()
	}()

	outs := make([]chan repetition, W)
	for w := range outs {
		outs[w] = make(chan repetition, 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := w; rep < cfg.Scale; rep += W {
				select {
				case <-stop:
					return
				default:
				}
				p := runRep(cfg, nil)
				select {
				case outs[w] <- p:
				case <-stop:
					return
				}
				if p.err != nil {
					return
				}
			}
		}()
	}

	for rep := 0; rep < cfg.Scale; rep++ {
		if err := r.take(<-outs[rep%W]); err != nil {
			return err
		}
	}
	return nil
}
