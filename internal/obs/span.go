package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Tracer aggregates stage spans. Spans with the same name pool into one
// StageSnap (count / total / min / max duration); when capture is enabled
// each completed span additionally becomes a Chrome trace_event, nested
// under its parent span's lane.
type Tracer struct {
	lanes atomic.Int64

	mu      sync.Mutex
	epoch   time.Time
	stages  map[string]*stageAgg
	events  []traceEvent
	capture bool

	// now is the clock; tests substitute a deterministic one.
	now func() time.Time
}

type stageAgg struct {
	count    uint64
	total    time.Duration
	min, max time.Duration
}

// NewTracer builds an empty tracer with capture disabled.
func NewTracer() *Tracer {
	return &Tracer{
		epoch:  time.Now(),
		stages: map[string]*stageAgg{},
		now:    time.Now,
	}
}

// SetCapture enables or disables trace-event capture. Aggregation into
// stage totals is unconditional.
func (t *Tracer) SetCapture(on bool) {
	t.mu.Lock()
	t.capture = on
	t.mu.Unlock()
}

// Span is one timed stage of the pipeline and one node of a span tree.
// Every ended span folds its duration into its Tracer's stage aggregate
// under its name; the tree additionally keeps parent/child structure,
// tags, and timing, so one request's cost can be attributed
// stage-by-stage after the fact — the per-request analogue of the paper's
// per-interval attribution. A tree is carried through the work it
// describes via context.Context (ContextWithSpan / SpanFromContext).
//
// All methods are safe on a nil receiver (no-ops returning zero values),
// so instrumented code can attach children unconditionally: a context
// without a span simply records nothing.
//
// Children may be attached and ended from multiple goroutines (batch
// items fan out); a single node's End must still be called exactly once
// by the goroutine that started it.
type Span struct {
	tr     *Tracer
	name   string
	arg    string
	parent string // parent span's name, "" for roots
	lane   int64  // trace-event tid: roots allocate, children inherit
	start  time.Time

	mu       sync.Mutex
	end      time.Time
	ended    bool
	tags     map[string]string
	children []*Span
}

// StartSpan starts a root span on the tracer. name is the stage and
// aggregate key ("core.select_markers", "http.v1.cluster"); arg labels the
// unit of work (the workload, the URL path) and may be empty.
func (t *Tracer) StartSpan(name, arg string) *Span {
	return &Span{tr: t, name: name, arg: arg, lane: t.lanes.Add(1), start: t.now()}
}

// Child starts a sub-span of s, attached to the tree under s: it records
// s's name as its parent stage and shares s's trace lane, so the Chrome
// trace renders it nested. Safe to call from any goroutine, and on a nil
// s (returns nil).
func (s *Span) Child(name, arg string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{tr: s.tr, name: name, arg: arg, parent: s.name, lane: s.lane, start: s.tr.now()}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// SetTag attaches (or overwrites) one key/value annotation — cache
// outcomes, error classes. Nil-safe.
func (s *Span) SetTag(k, v string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.tags == nil {
		s.tags = map[string]string{}
	}
	s.tags[k] = v
	s.mu.Unlock()
}

// Tag reads one annotation ("" when absent). Nil-safe.
func (s *Span) Tag(k string) string {
	if s == nil {
		return ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tags[k]
}

// End stops the span, folds its duration into the tracer's stage
// aggregate under the span's name, and (with capture on) records a trace
// event. It returns the duration. A second End (and End on nil) is a
// no-op returning 0.
func (s *Span) End() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return 0
	}
	s.ended = true
	s.end = s.tr.now()
	d := s.end.Sub(s.start)
	s.mu.Unlock()
	s.tr.record(s, d)
	return d
}

// record folds one ended span's duration into its stage aggregate and,
// with capture on, appends its trace event on the span's lane. It takes
// t.mu before s.mu; nothing takes them in the other order.
func (t *Tracer) record(s *Span, d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	agg := t.stages[s.name]
	if agg == nil {
		agg = &stageAgg{min: d, max: d}
		t.stages[s.name] = agg
	}
	agg.count++
	agg.total += d
	if d < agg.min {
		agg.min = d
	}
	if d > agg.max {
		agg.max = d
	}
	if t.capture {
		s.mu.Lock()
		n := s.node(t.epoch, s.end)
		s.mu.Unlock()
		t.events = append(t.events, n.event("stage", s.parent, s.lane))
	}
}

// Stages snapshots the aggregated span timings, sorted by name.
func (t *Tracer) Stages() []StageSnap {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]StageSnap, 0, len(t.stages))
	for name, a := range t.stages {
		out = append(out, StageSnap{
			Name:    name,
			Count:   a.count,
			TotalNS: a.total.Nanoseconds(),
			MinNS:   a.min.Nanoseconds(),
			MaxNS:   a.max.Nanoseconds(),
			AvgNS:   a.total.Nanoseconds() / int64(a.count),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// SpanSnap is one node of a snapshotted span tree, the form the debug
// surface serves and the Chrome-trace exporter consumes. Start offsets are
// relative to the snapshot root's start.
type SpanSnap struct {
	Name     string            `json:"name"`
	Arg      string            `json:"arg,omitempty"`
	StartNS  int64             `json:"start_ns"`
	DurNS    int64             `json:"dur_ns"`
	Tags     map[string]string `json:"tags,omitempty"`
	Children []SpanSnap        `json:"children,omitempty"`
}

// Snapshot copies the tree rooted at s into a plain value. Spans still
// open (including the root, mid-request) are measured as of now; the
// snapshot is internally consistent per node, not across nodes while the
// request is still running. Nil-safe (returns the zero snapshot).
func (s *Span) Snapshot() SpanSnap {
	if s == nil {
		return SpanSnap{}
	}
	return s.snapshot(s.start, s.tr.now())
}

func (s *Span) snapshot(epoch, now time.Time) SpanSnap {
	s.mu.Lock()
	snap := s.node(epoch, now)
	kids := make([]*Span, len(s.children))
	copy(kids, s.children)
	s.mu.Unlock()
	for _, c := range kids {
		snap.Children = append(snap.Children, c.snapshot(epoch, now))
	}
	return snap
}

// node copies s without its children, timed from epoch; an open span is
// measured as of now. The caller holds s.mu.
func (s *Span) node(epoch, now time.Time) SpanSnap {
	end := s.end
	if !s.ended {
		end = now
	}
	n := SpanSnap{
		Name:    s.name,
		Arg:     s.arg,
		StartNS: s.start.Sub(epoch).Nanoseconds(),
		DurNS:   end.Sub(s.start).Nanoseconds(),
	}
	if len(s.tags) > 0 {
		n.Tags = make(map[string]string, len(s.tags))
		for k, v := range s.tags {
			n.Tags[k] = v
		}
	}
	return n
}

// traceEvent is one entry of the Chrome trace_event "complete event"
// format (ph "X"): timestamps and durations in microseconds.
type traceEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	TS   int64             `json:"ts"`
	Dur  int64             `json:"dur"`
	PID  int               `json:"pid"`
	TID  int64             `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// event renders n as a complete event on lane tid, carrying its arg, its
// parent stage's name, and its tags as args.
func (n *SpanSnap) event(cat, parent string, tid int64) traceEvent {
	ev := traceEvent{
		Name: n.Name,
		Cat:  cat,
		Ph:   "X",
		TS:   n.StartNS / 1e3,
		Dur:  n.DurNS / 1e3,
		PID:  1,
		TID:  tid,
	}
	args := map[string]string{}
	if n.Arg != "" {
		args["arg"] = n.Arg
	}
	if parent != "" {
		args["parent"] = parent
	}
	for k, v := range n.Tags {
		args[k] = v
	}
	if len(args) > 0 {
		ev.Args = args
	}
	return ev
}

// chromeTrace is the top-level object chrome://tracing and Perfetto load.
type chromeTrace struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

func writeChromeTrace(w io.Writer, events []traceEvent) error {
	return json.NewEncoder(w).Encode(chromeTrace{TraceEvents: events, DisplayTimeUnit: "ms"})
}

// WriteChromeTrace writes every captured event as Chrome trace_event JSON.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	t.mu.Lock()
	events := make([]traceEvent, len(t.events))
	copy(events, t.events)
	t.mu.Unlock()
	return writeChromeTrace(w, events)
}

// WriteChromeTrace renders the tree rooted at s as Chrome trace_event
// JSON on one lane, timed from s's start — the per-request counterpart of
// Tracer.WriteChromeTrace. Nil-safe (writes an empty trace).
func (s *Span) WriteChromeTrace(w io.Writer) error {
	events := []traceEvent{}
	var emit func(n *SpanSnap, parent string)
	emit = func(n *SpanSnap, parent string) {
		events = append(events, n.event("request", parent, 1))
		for i := range n.Children {
			emit(&n.Children[i], n.Name)
		}
	}
	if s != nil {
		root := s.Snapshot()
		emit(&root, "")
	}
	return writeChromeTrace(w, events)
}

// spanCtxKey carries a span through context.Context.
type spanCtxKey struct{}

// ContextWithSpan returns a context carrying s; work running under the
// returned context attaches its sub-spans to s via SpanFromContext.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, s)
}

// SpanFromContext returns the span carried by ctx, or nil when the
// context carries none (every Span method tolerates nil).
func SpanFromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(spanCtxKey{}).(*Span)
	return s
}

// NewID returns n cryptographically random bytes as 2n lowercase hex
// digits — W3C trace IDs (n=16), span IDs (n=8), request IDs (n=8).
func NewID(n int) string {
	b := make([]byte, n)
	rand.Read(b) // never fails (crypto/rand contract)
	return hex.EncodeToString(b)
}
