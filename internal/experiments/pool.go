package experiments

import (
	"time"

	"phasemark/internal/obs"
	"phasemark/internal/par"
	"phasemark/internal/workloads"
)

// Worker-pool metrics. Queue wait is measured from the moment the
// dispatcher offers a workload until a worker picks it up (the hand-off
// channel is unbuffered, so this is exactly how long the item waited for a
// free worker); exec is the workload evaluation itself.
var (
	obsPoolBatches   = obs.NewCounter("pool.batches")
	obsPoolItems     = obs.NewCounter("pool.items")
	obsPoolWorkers   = obs.NewGauge("pool.workers")
	obsPoolQueueWait = obs.NewHist("pool.queue_wait_ns")
	obsPoolExec      = obs.NewHist("pool.exec_ns")
)

// poolObs adapts the shared worker-pool primitive's telemetry hooks to
// the suite's metric registry.
var poolObs = &par.Obs{
	QueueWait: func(d time.Duration) { obsPoolQueueWait.Observe(uint64(d)) },
	Exec:      func(d time.Duration) { obsPoolExec.Observe(uint64(d)) },
}

// ForEachWorkload evaluates fn for every workload of ws on up to
// the suite's jobs workers (par.ForEach does the scheduling). fn receives
// the workload's index in ws so callers can write results into an
// index-addressed slice and assemble table rows in the original
// (deterministic) order afterwards.
//
// All workloads are evaluated even if one fails; the returned error is the
// one from the lowest-indexed failing workload, so the outcome does not
// depend on goroutine scheduling.
func (s *Suite) ForEachWorkload(ws []*workloads.Workload, fn func(i int, w *workloads.Workload) error) error {
	jobs := s.jobs
	if jobs > len(ws) {
		jobs = len(ws)
	}
	obsPoolBatches.Inc()
	obsPoolItems.Add(uint64(len(ws)))
	obsPoolWorkers.Set(int64(jobs))
	errs := make([]error, len(ws))
	par.ForEach(len(ws), jobs, poolObs, func(worker, i int) {
		errs[i] = fn(i, ws[i])
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
