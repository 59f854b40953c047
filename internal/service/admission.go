package service

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"phasemark/internal/obs"
	"phasemark/internal/par"
)

// SpanQueue names the queue-wait child span Gate.Do attaches to the
// request span carried by its context: admission to execution-slot
// acquisition. Alongside store.Span*, it is one of the sequential
// root-level phases of a dispatched request.
const SpanQueue = "req.queue"

// Admission metrics. Queue wait is measured from admission until an
// execution slot frees up; exec is the handler's compute (store lookup
// plus any pipeline work). Rejections split by cause: saturated (queue
// full, 429) vs draining (shutdown in progress, 503).
var (
	obsAdmitted      = obs.NewCounter("service.admitted")
	obsRejected      = obs.NewCounter("service.rejected_saturated")
	obsRejectedDrain = obs.NewCounter("service.rejected_draining")
	obsInflight      = obs.NewGauge("service.inflight")
	obsQueued        = obs.NewGauge("service.queued")
	obsQueueWait     = obs.NewHist("service.queue_wait_ns")
	obsExec          = obs.NewHist("service.exec_ns")
)

// gateObs adapts the gate's telemetry to the metric registry through the
// same hook type the worker pools use (par.Obs), so queue-wait/exec
// histograms read identically across the suite pool and the service.
var gateObs = &par.Obs{
	QueueWait: func(d time.Duration) { obsQueueWait.Observe(uint64(d)) },
	Exec:      func(d time.Duration) { obsExec.Observe(uint64(d)) },
}

// Gate errors, mapped to HTTP statuses by the server (429 / 503).
var (
	// ErrSaturated: the bounded queue is full; the client should back off
	// and retry (Retry-After).
	ErrSaturated = errors.New("service: saturated, try again later")
	// ErrDraining: the server is shutting down and admits no new work.
	ErrDraining = errors.New("service: draining, not accepting work")
)

// Gate is the admission-control layer: at most `workers` requests execute
// concurrently and at most `queue` more wait for a slot; anything beyond
// that is rejected immediately with ErrSaturated instead of queuing
// unboundedly inside the process. A draining gate (StartDrain) rejects all
// new work with ErrDraining while already-admitted requests finish.
type Gate struct {
	// tokens bounds admitted work (executing + waiting); slots bounds
	// execution. Both are semaphores realized as buffered channels.
	tokens   chan struct{}
	slots    chan struct{}
	draining atomic.Bool
}

// NewGate builds a gate with the given execution and queue bounds (values
// below 1 mean 1 executing / 0 waiting).
func NewGate(workers, queue int) *Gate {
	if workers < 1 {
		workers = 1
	}
	if queue < 0 {
		queue = 0
	}
	return &Gate{
		tokens: make(chan struct{}, workers+queue),
		slots:  make(chan struct{}, workers),
	}
}

// Do admits fn through the gate and runs it on the caller's goroutine:
// reject if draining, reject if the queue is full, otherwise wait for an
// execution slot (recording queue wait, as a metric and — when ctx
// carries a request span — a SpanQueue child span) and run (recording
// exec time). A request whose ctx has ended by the time it holds a slot,
// or ends while it waits for one, leaves without running fn. The
// returned error is ErrDraining, ErrSaturated, ctx's error, or fn's own
// error.
func (g *Gate) Do(ctx context.Context, fn func() error) error {
	if g.draining.Load() {
		obsRejectedDrain.Inc()
		return ErrDraining
	}
	select {
	case g.tokens <- struct{}{}:
	default:
		obsRejected.Inc()
		return ErrSaturated
	}
	defer func() { <-g.tokens }()

	obsAdmitted.Inc()
	obsQueued.Add(1)
	qsp := obs.SpanFromContext(ctx).Child(SpanQueue, "")
	enqueued := time.Now()
	var err error
	select {
	case g.slots <- struct{}{}:
		// When ctx had already ended, select may still have picked the
		// free slot: such a request leaves without running too.
		if err = ctx.Err(); err != nil {
			<-g.slots
		}
	case <-ctx.Done():
		err = ctx.Err()
	}
	if err != nil {
		qsp.End()
		obsQueued.Add(-1)
		return err
	}
	defer func() { <-g.slots }()
	start := time.Now()
	qsp.End()
	gateObs.QueueWait(start.Sub(enqueued))
	obsQueued.Add(-1)
	obsInflight.Add(1)
	defer func() {
		obsInflight.Add(-1)
		gateObs.Exec(time.Since(start))
	}()
	return fn()
}

// StartDrain flips the gate into drain mode: every subsequent Do is
// rejected with ErrDraining. In-flight work is unaffected; pair with
// http.Server.Shutdown to wait for it.
func (g *Gate) StartDrain() { g.draining.Store(true) }

// Draining reports whether the gate is in drain mode.
func (g *Gate) Draining() bool { return g.draining.Load() }

// RetryAfterSeconds is the backoff hint sent with 429 responses.
const RetryAfterSeconds = 1
