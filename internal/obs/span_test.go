package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock advances a tracer's clock by a fixed step on every reading, so
// span timings are deterministic.
func fakeClock(t *Tracer, step time.Duration) {
	var mu sync.Mutex
	now := t.epoch
	t.now = func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		cur := now
		now = now.Add(step)
		return cur
	}
}

func TestSpanNestingAndAggregation(t *testing.T) {
	tr := NewTracer()
	fakeClock(tr, time.Millisecond)

	root := tr.StartSpan("figure.7", "")
	child := root.Child("graph.build", "gzip")
	grand := child.Child("select.pass1", "")
	if grand.parent != "graph.build" || child.parent != "figure.7" || root.parent != "" {
		t.Errorf("parent chain wrong: %q <- %q <- %q",
			root.parent, child.parent, grand.parent)
	}
	if child.lane != root.lane || grand.lane != root.lane {
		t.Error("children must inherit the root span's lane")
	}
	// Clock readings: root@0, child@1, grand@2, then the Ends below.
	if d := grand.End(); d != time.Millisecond {
		t.Errorf("grand duration = %v, want 1ms", d)
	}
	if d := child.End(); d != 3*time.Millisecond {
		t.Errorf("child duration = %v, want 3ms", d)
	}
	if d := root.End(); d != 5*time.Millisecond {
		t.Errorf("root duration = %v, want 5ms", d)
	}
	if d := root.End(); d != 0 {
		t.Errorf("second End = %v, want 0 (no-op)", d)
	}

	// A second root span with a repeated name pools into the same stage.
	again := tr.StartSpan("graph.build", "gcc")
	if again.lane == root.lane {
		t.Error("a new root span must get a fresh lane")
	}
	again.End()

	stages := tr.Stages()
	if len(stages) != 3 {
		t.Fatalf("got %d stages, want 3: %+v", len(stages), stages)
	}
	// Sorted by name: figure.7, graph.build, select.pass1.
	if stages[0].Name != "figure.7" || stages[1].Name != "graph.build" || stages[2].Name != "select.pass1" {
		t.Fatalf("stage order wrong: %+v", stages)
	}
	gb := stages[1]
	if gb.Count != 2 {
		t.Errorf("graph.build count = %d, want 2", gb.Count)
	}
	if gb.MinNS != int64(time.Millisecond) || gb.MaxNS != int64(3*time.Millisecond) {
		t.Errorf("graph.build min/max = %d/%d, want 1ms/3ms", gb.MinNS, gb.MaxNS)
	}
	if gb.TotalNS != int64(4*time.Millisecond) || gb.AvgNS != int64(2*time.Millisecond) {
		t.Errorf("graph.build total/avg = %d/%d, want 4ms/2ms", gb.TotalNS, gb.AvgNS)
	}
}

func TestSpanConcurrentEndsAreRaceFree(t *testing.T) {
	tr := NewTracer()
	tr.SetCapture(true)
	var wg sync.WaitGroup
	for range 16 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				sp := tr.StartSpan("stage", "w")
				sp.Child("inner", "").End()
				sp.End()
			}
		}()
	}
	wg.Wait()
	stages := tr.Stages()
	if len(stages) != 2 || stages[0].Count != 16*200 || stages[1].Count != 16*200 {
		t.Errorf("stage aggregation lost spans: %+v", stages)
	}
}

// TestChromeTraceGolden pins the exact trace_event serialization: ph "X"
// complete events with microsecond ts/dur, children on the parent's lane,
// parent stage and workload arg in args.
func TestChromeTraceGolden(t *testing.T) {
	tr := NewTracer()
	tr.SetCapture(true)
	fakeClock(tr, time.Millisecond)

	root := tr.StartSpan("figure.7", "")
	child := root.Child("graph.build", "gzip")
	child.End()
	root.End()

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	got := strings.TrimSpace(buf.String())
	want := `{"traceEvents":[` +
		`{"name":"graph.build","cat":"stage","ph":"X","ts":1000,"dur":1000,"pid":1,"tid":1,"args":{"arg":"gzip","parent":"figure.7"}},` +
		`{"name":"figure.7","cat":"stage","ph":"X","ts":0,"dur":3000,"pid":1,"tid":1}` +
		`],"displayTimeUnit":"ms"}`
	if got != want {
		t.Errorf("chrome trace mismatch:\n got: %s\nwant: %s", got, want)
	}
}

func TestCaptureOffRecordsNoEvents(t *testing.T) {
	tr := NewTracer()
	tr.StartSpan("s", "").End()
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"traceEvents":[]`) {
		t.Errorf("expected empty traceEvents, got %s", buf.String())
	}
	if st := tr.Stages(); len(st) != 1 || st[0].Count != 1 {
		t.Errorf("aggregation must stay on with capture off: %+v", st)
	}
}

func TestSummaryRendersAllSections(t *testing.T) {
	r := NewRegistry()
	r.Counter("cell.hit").Add(3)
	r.Gauge("pool.workers").Set(8)
	r.Hist("pool.queue_wait_ns").Observe(1500)
	tr := NewTracer()
	tr.StartSpan("graph.build", "gzip").End()

	snap := r.Snapshot()
	snap.Stages = tr.Stages()
	var buf bytes.Buffer
	snap.WriteSummary(&buf)
	out := buf.String()
	for _, want := range []string{
		"observability summary", "graph.build", "cell.hit",
		"pool.workers", "pool.queue_wait_ns",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestSpanTreeAndSnapshot(t *testing.T) {
	tr := NewTracer()
	fakeClock(tr, time.Millisecond)

	// Clock readings: root@0, a@1, b@2, b.End@3, a.End@4, root.End@5.
	root := tr.StartSpan("http.v1.cluster", "/v1/cluster")
	a := root.Child("store.get", "cafe0123")
	a.SetTag("cache", "miss")
	b := a.Child("pipeline.prog", "gzip")
	if d := b.End(); d != time.Millisecond {
		t.Errorf("b duration = %v, want 1ms", d)
	}
	if d := a.End(); d != 3*time.Millisecond {
		t.Errorf("a duration = %v, want 3ms", d)
	}
	if d := root.End(); d != 5*time.Millisecond {
		t.Errorf("root duration = %v, want 5ms", d)
	}
	if d := root.End(); d != 0 {
		t.Errorf("second End = %v, want 0 (no-op)", d)
	}

	snap := root.Snapshot()
	if snap.Name != "http.v1.cluster" || snap.Arg != "/v1/cluster" {
		t.Errorf("root snap = %q/%q", snap.Name, snap.Arg)
	}
	if snap.StartNS != 0 || snap.DurNS != 5e6 {
		t.Errorf("root timing = start %d dur %d", snap.StartNS, snap.DurNS)
	}
	if len(snap.Children) != 1 || snap.Children[0].Name != "store.get" {
		t.Fatalf("root children = %+v", snap.Children)
	}
	get := snap.Children[0]
	if get.StartNS != 1e6 || get.DurNS != 3e6 {
		t.Errorf("store.get timing = start %d dur %d", get.StartNS, get.DurNS)
	}
	if get.Tags["cache"] != "miss" {
		t.Errorf("store.get tags = %v", get.Tags)
	}
	if len(get.Children) != 1 || get.Children[0].Name != "pipeline.prog" || get.Children[0].Arg != "gzip" {
		t.Fatalf("store.get children = %+v", get.Children)
	}

	// Every completed node fed the tracer's stage aggregates.
	for _, want := range []string{"http.v1.cluster", "store.get", "pipeline.prog"} {
		found := false
		for _, st := range tr.Stages() {
			if st.Name == want && st.Count == 1 {
				found = true
			}
		}
		if !found {
			t.Errorf("stage %q missing from aggregates", want)
		}
	}
}

func TestSpanNilSafety(t *testing.T) {
	var s *Span
	if c := s.Child("x", ""); c != nil {
		t.Error("nil.Child must return nil")
	}
	s.SetTag("k", "v")
	if s.Tag("k") != "" || s.End() != 0 {
		t.Error("nil span accessors must return zero values")
	}
	if snap := s.Snapshot(); snap.Name != "" || len(snap.Children) != 0 {
		t.Errorf("nil snapshot = %+v", snap)
	}
	var buf bytes.Buffer
	if err := s.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("nil WriteChromeTrace: %v", err)
	}
	var out struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("nil trace not JSON: %v", err)
	}
}

func TestContextCarriesSpan(t *testing.T) {
	if SpanFromContext(context.Background()) != nil {
		t.Error("empty context must carry no span")
	}
	sp := StartSpan("http.test", "")
	ctx := ContextWithSpan(context.Background(), sp)
	if SpanFromContext(ctx) != sp {
		t.Error("context must round-trip the span")
	}
	sp.End()
}

func TestSpanTreeChromeTrace(t *testing.T) {
	tr := NewTracer()
	fakeClock(tr, time.Millisecond)
	root := tr.StartSpan("http.v1.select", "/v1/select")
	c := root.Child("store.compute", "beef0001")
	c.SetTag("cache", "computed")
	c.End()
	root.End()

	var buf bytes.Buffer
	if err := root.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var out struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Cat  string            `json:"cat"`
			TS   int64             `json:"ts"`
			Dur  int64             `json:"dur"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("trace not JSON: %v", err)
	}
	if len(out.TraceEvents) != 2 {
		t.Fatalf("trace has %d events, want 2", len(out.TraceEvents))
	}
	for _, ev := range out.TraceEvents {
		if ev.Ph != "X" || ev.Cat != "request" {
			t.Errorf("event %q ph=%q cat=%q, want X/request", ev.Name, ev.Ph, ev.Cat)
		}
	}
	child := out.TraceEvents[1]
	if child.Name != "store.compute" || child.Args["parent"] != "http.v1.select" ||
		child.Args["cache"] != "computed" || child.Args["arg"] != "beef0001" {
		t.Errorf("child event = %+v", child)
	}
	if child.TS != 1000 || child.Dur != 1000 {
		t.Errorf("child timing = ts %d dur %d µs, want 1000/1000", child.TS, child.Dur)
	}
}

// TestSpanConcurrentTrees runs many request trees in parallel on
// one tracer (run under -race in CI): children must never leak across
// request roots, and the shared stage aggregation must account for every
// ended span exactly once.
func TestSpanConcurrentTrees(t *testing.T) {
	const (
		requests = 32
		children = 16
	)
	tr := NewTracer()
	roots := make([]*Span, requests)
	var wg sync.WaitGroup
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			arg := fmt.Sprintf("req-%d", i)
			root := tr.StartSpan("http.concurrent", arg)
			roots[i] = root
			var cwg sync.WaitGroup
			for j := 0; j < children; j++ {
				cwg.Add(1)
				go func(j int) {
					defer cwg.Done()
					c := root.Child("stage.child", arg)
					c.SetTag("i", arg)
					c.End()
				}(j)
			}
			cwg.Wait()
			root.End()
		}(i)
	}
	wg.Wait()

	for i, root := range roots {
		snap := root.Snapshot()
		want := fmt.Sprintf("req-%d", i)
		if snap.Arg != want {
			t.Fatalf("root %d arg = %q", i, snap.Arg)
		}
		if len(snap.Children) != children {
			t.Errorf("root %d has %d children, want %d (cross-request leakage?)",
				i, len(snap.Children), children)
		}
		for _, c := range snap.Children {
			if c.Arg != want || c.Tags["i"] != want {
				t.Errorf("root %d adopted foreign child %q/%v", i, c.Arg, c.Tags)
			}
		}
	}

	counts := map[string]uint64{}
	for _, st := range tr.Stages() {
		counts[st.Name] = st.Count
	}
	if counts["http.concurrent"] != requests {
		t.Errorf("root stage count = %d, want %d", counts["http.concurrent"], requests)
	}
	if counts["stage.child"] != requests*children {
		t.Errorf("child stage count = %d, want %d", counts["stage.child"], requests*children)
	}
}

func TestNewID(t *testing.T) {
	a, b := NewID(16), NewID(16)
	if len(a) != 32 || len(b) != 32 {
		t.Fatalf("NewID(16) lengths = %d, %d, want 32", len(a), len(b))
	}
	if a == b {
		t.Error("two IDs collided (crypto/rand broken?)")
	}
	for _, r := range a {
		if !(r >= '0' && r <= '9' || r >= 'a' && r <= 'f') {
			t.Fatalf("NewID emitted non-hex rune %q", r)
		}
	}
}
