// Package par provides the repo's one worker-pool primitive: a bounded
// fan-out over an index range with stable worker identities, shared by
// the experiment suite's workload pool and the clustering engine's
// (k, restart) run fan. Callers that need per-worker scratch key it by
// the worker id; callers that need queueing telemetry pass an Obs.
// Share sizes the parallelism of work nested inside such a fan-out.
package par

import (
	"runtime"
	"time"
)

// Share reports how many goroutines each of n tasks running side by side
// may use: GOMAXPROCS split n ways, at least 1 (n < 1 counts as 1). A
// caller that already runs n things at once hands each one its share
// (a trace.Config.Workers, say) instead of the whole machine, so a pool
// that fills every CPU runs its tasks serially inside.
func Share(n int) int {
	return max(1, runtime.GOMAXPROCS(0)/max(n, 1))
}

// Obs receives scheduling telemetry: QueueWait is how long a dispatched
// item waited before a worker picked it up, Exec is how long the item's
// fn ran. Either hook may be nil. A nil *Obs skips all timestamping.
type Obs struct {
	QueueWait func(time.Duration)
	Exec      func(time.Duration)
}

func (o *Obs) queueWait(d time.Duration) {
	if o != nil && o.QueueWait != nil {
		o.QueueWait(d)
	}
}

func (o *Obs) exec(d time.Duration) {
	if o != nil && o.Exec != nil {
		o.Exec(d)
	}
}

// ForEach runs fn(worker, i) for every i in [0, n) on up to workers
// goroutines and returns when all calls have finished. Worker ids are
// dense in [0, effective workers): two calls with the same worker id
// never overlap, so fn may keep per-worker scratch indexed by the id.
// With workers <= 1 (or n <= 1) the calls run inline on the caller's
// goroutine, in index order, as worker 0 — no goroutines, no channels —
// which also serves as the deterministic reference schedule for tests.
func ForEach(n, workers int, obs *Obs, fn func(worker, i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if obs == nil {
				fn(0, i)
				continue
			}
			start := time.Now()
			fn(0, i)
			obs.exec(time.Since(start))
		}
		return
	}

	type item struct {
		i  int
		at time.Time // when the dispatcher offered the item
	}
	// Unbuffered on purpose: a send completes only when a worker receives,
	// so offer-to-pickup time is a true queue-wait measurement and the
	// dispatcher applies backpressure instead of buffering the whole range.
	ch := make(chan item)
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer func() { done <- struct{}{} }()
			for it := range ch {
				if obs == nil {
					fn(worker, it.i)
					continue
				}
				pickup := time.Now()
				obs.queueWait(pickup.Sub(it.at))
				fn(worker, it.i)
				obs.exec(time.Since(pickup))
			}
		}(w)
	}
	for i := 0; i < n; i++ {
		it := item{i: i}
		if obs != nil {
			it.at = time.Now()
		}
		ch <- it
	}
	close(ch)
	for w := 0; w < workers; w++ {
		<-done
	}
}
