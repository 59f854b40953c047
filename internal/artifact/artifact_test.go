package artifact

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"phasemark/internal/obs"
	"phasemark/internal/store"
	"phasemark/internal/trace"
)

// counterNames are the process-wide counters every Do feeds.
var counterNames = []string{
	"artifact.hit", "artifact.computed", "artifact.joined", "artifact.join_err", "artifact.compute_err",
}

// readCounters reads the outcome counters by name: obs.NewCounter
// find-or-creates, so this observes the counters Do increments.
func readCounters() map[string]uint64 {
	c := make(map[string]uint64, len(counterNames))
	for _, name := range counterNames {
		c[name] = obs.NewCounter(name).Load()
	}
	return c
}

// cacheTags lists the cache tags of root's child spans, sorted.
func cacheTags(root *obs.Span) []string {
	var tags []string
	for _, c := range root.Snapshot().Children {
		tags = append(tags, c.Tags["cache"])
	}
	sort.Strings(tags)
	return tags
}

// flight has one leader compute key "k" of m, returning (v, err) only
// after waiters more callers of "k" have opened their spans under ctx's
// and had time to block on its flight. It returns the leader's error
// first, then each waiter's, and fails the test if a waiter ran its own
// compute.
func flight(t *testing.T, ctx context.Context, m *store.Memo[string, int], v int, err error, waiters int) []error {
	entered, release := make(chan struct{}), make(chan struct{})
	errs := make([]error, 1+waiters)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, errs[0] = Do(ctx, m, "leader", "", "k", func(context.Context) (int, error) {
			close(entered)
			<-release
			return v, err
		})
	}()
	<-entered
	for i := 1; i <= waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = Do(ctx, m, "waiter", "", "k", func(context.Context) (int, error) {
				t.Error("a waiter computed instead of joining the flight")
				return 0, nil
			})
		}()
	}
	for len(obs.SpanFromContext(ctx).Snapshot().Children) < 1+waiters {
		runtime.Gosched()
	}
	time.Sleep(20 * time.Millisecond) // let the waiters reach the memo
	close(release)
	wg.Wait()
	return errs
}

// TestDoOutcomes drives each access pattern through Do on a fresh memo
// under a traced ctx. It checks the counter deltas, the cache tag of
// every access's span, each caller's error, and how often compute ran.
// A join of a failed flight counts apart from the leader's compute
// error, and a failure is not cached: the next caller computes again.
// The counters are process-wide, so each case measures deltas (the
// package's tests run sequentially).
func TestDoOutcomes(t *testing.T) {
	boom := errors.New("boom")
	cases := []struct {
		name string
		// run drives m under ctx and returns its callers' errors in a
		// case-defined order.
		run    func(t *testing.T, ctx context.Context, m *store.Memo[string, int]) []error
		errs   []error
		counts map[string]uint64
		tags   []string // sorted cache tags of the root's child spans
		cached int      // successful values the memo holds afterwards
	}{
		{
			name: "compute then hit",
			run: func(t *testing.T, ctx context.Context, m *store.Memo[string, int]) []error {
				_, err1 := Do(ctx, m, "a", "", "k", func(context.Context) (int, error) { return 1, nil })
				v, err2 := Do(ctx, m, "a", "", "k", func(context.Context) (int, error) { return 2, nil })
				if v != 1 {
					t.Errorf("hit returned %d, want the cached 1", v)
				}
				return []error{err1, err2}
			},
			errs:   []error{nil, nil},
			counts: map[string]uint64{"artifact.computed": 1, "artifact.hit": 1},
			tags:   []string{"computed", "hit"},
			cached: 1,
		},
		{
			name: "compute error propagates and is retried",
			run: func(t *testing.T, ctx context.Context, m *store.Memo[string, int]) []error {
				_, err1 := Do(ctx, m, "a", "", "k", func(context.Context) (int, error) { return 0, boom })
				v, err2 := Do(ctx, m, "a", "", "k", func(context.Context) (int, error) { return 7, nil })
				if v != 7 {
					t.Errorf("retry returned %d, want 7", v)
				}
				_, err3 := Do(ctx, m, "a", "", "k", func(context.Context) (int, error) { return 8, nil })
				return []error{err1, err2, err3}
			},
			errs:   []error{boom, nil, nil},
			counts: map[string]uint64{"artifact.computed": 2, "artifact.compute_err": 1, "artifact.hit": 1},
			tags:   []string{"computed", "computed", "hit"},
			cached: 1,
		},
		{
			name: "join of a successful flight",
			run: func(t *testing.T, ctx context.Context, m *store.Memo[string, int]) []error {
				return flight(t, ctx, m, 42, nil, 3)
			},
			errs:   []error{nil, nil, nil, nil},
			counts: map[string]uint64{"artifact.computed": 1, "artifact.joined": 3},
			tags:   []string{"computed", "joined", "joined", "joined"},
			cached: 1,
		},
		{
			name: "join of a failed flight",
			run: func(t *testing.T, ctx context.Context, m *store.Memo[string, int]) []error {
				errs := flight(t, ctx, m, 0, boom, 3)
				// The waiters did no work and cached nothing: the next
				// caller computes afresh.
				_, err := Do(ctx, m, "retry", "", "k", func(context.Context) (int, error) { return 7, nil })
				return append(errs, err)
			},
			errs: []error{boom, boom, boom, boom, nil},
			// One compute error for the leader; each waiter is a join_err,
			// not a second compute_err and not a retry.
			counts: map[string]uint64{"artifact.computed": 2, "artifact.compute_err": 1, "artifact.join_err": 3},
			tags:   []string{"computed", "computed", "joined", "joined", "joined"},
			cached: 1,
		},
		{
			name: "distinct keys count apart",
			run: func(t *testing.T, ctx context.Context, m *store.Memo[string, int]) []error {
				_, err1 := Do(ctx, m, "a", "", "a", func(context.Context) (int, error) { return 1, nil })
				_, err2 := Do(ctx, m, "b", "", "b", func(context.Context) (int, error) { return 0, boom })
				_, err3 := Do(ctx, m, "a", "", "a", func(context.Context) (int, error) { return 9, nil })
				return []error{err1, err2, err3}
			},
			errs:   []error{nil, boom, nil},
			counts: map[string]uint64{"artifact.computed": 2, "artifact.compute_err": 1, "artifact.hit": 1},
			tags:   []string{"computed", "computed", "hit"},
			cached: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			root := obs.NewTracer().StartSpan("root", "")
			ctx := obs.ContextWithSpan(context.Background(), root)
			var m store.Memo[string, int]
			before := readCounters()
			errs := tc.run(t, ctx, &m)
			after := readCounters()
			for _, name := range counterNames {
				if got, want := after[name]-before[name], tc.counts[name]; got != want {
					t.Errorf("%s delta = %d, want %d", name, got, want)
				}
			}
			if got := cacheTags(root); !reflect.DeepEqual(got, tc.tags) {
				t.Errorf("cache tags = %v, want %v", got, tc.tags)
			}
			if !reflect.DeepEqual(errs, tc.errs) {
				t.Errorf("caller errors = %v, want %v", errs, tc.errs)
			}
			if m.Len() != tc.cached {
				t.Errorf("memo holds %d values, want %d", m.Len(), tc.cached)
			}
		})
	}
}

// TestDoConcurrentCallersShareOneComputation races 32 unordered callers
// of one key: compute runs once, every caller gets its value, and every
// other caller counts as a join or a hit.
func TestDoConcurrentCallersShareOneComputation(t *testing.T) {
	var m store.Memo[string, int]
	var computes atomic.Int32
	before := readCounters()
	vals := make([]int, 32)
	var wg sync.WaitGroup
	for i := range vals {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := Do(context.Background(), &m, "a", "", "k", func(context.Context) (int, error) {
				computes.Add(1)
				time.Sleep(10 * time.Millisecond) // widen the race window
				return 42, nil
			})
			if err != nil {
				t.Error(err)
			}
			vals[i] = v
		}()
	}
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Errorf("compute ran %d times, want 1", n)
	}
	for i, v := range vals {
		if v != 42 {
			t.Errorf("caller %d got %d, want 42", i, v)
		}
	}
	after := readCounters()
	delta := func(name string) uint64 { return after[name] - before[name] }
	if c, shared := delta("artifact.computed"), delta("artifact.joined")+delta("artifact.hit"); c != 1 || shared != 31 {
		t.Errorf("computed delta %d, joined+hit delta %d, want 1 and 31", c, shared)
	}
}

// TestDoErrorsAreNotCached: every waiter of a failed flight gets the
// leader's error without computing, the next caller computes afresh, and
// later callers read its value from the memo.
func TestDoErrorsAreNotCached(t *testing.T) {
	boom := errors.New("boom")
	var m store.Memo[string, int]
	ctx := obs.ContextWithSpan(context.Background(), obs.NewTracer().StartSpan("root", ""))
	for i, err := range flight(t, ctx, &m, 0, boom, 7) {
		if !errors.Is(err, boom) {
			t.Errorf("caller %d got %v, want boom", i, err)
		}
	}
	v, err := Do(ctx, &m, "retry", "", "k", func(context.Context) (int, error) { return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("retry after error: got %d, %v", v, err)
	}
	v, err = Do(ctx, &m, "read", "", "k", func(context.Context) (int, error) {
		t.Error("a read after the successful retry recomputed")
		return -1, nil
	})
	if err != nil || v != 7 {
		t.Fatalf("cached read: got %d, %v", v, err)
	}
}

// TestDoWithoutSpanRecordsNoSpan pins that a ctx without a span leaves
// no span behind while the outcome still counts.
func TestDoWithoutSpanRecordsNoSpan(t *testing.T) {
	var m store.Memo[string, int]
	before := obs.NewCounter("artifact.computed").Load()
	var inner *obs.Span
	Do(context.Background(), &m, "a", "", "k", func(ctx context.Context) (int, error) {
		inner = obs.SpanFromContext(ctx)
		return 1, nil
	})
	if inner != nil {
		t.Errorf("compute ran under span %+v, want none", inner.Snapshot())
	}
	if d := obs.NewCounter("artifact.computed").Load() - before; d != 1 {
		t.Errorf("artifact.computed delta = %d, want 1", d)
	}
}

// runWithDeadline fails the test instead of hanging the package when a
// memo deadlocks.
func runWithDeadline(t *testing.T, d time.Duration, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatal("deadlock: Do did not complete")
	}
}

// TestDoReentrantChainDoesNotDeadlock chains Do the way the pipeline
// does (a clustering computes from a trace, which computes from a marker
// set, which computes from a graph): no lock may be held across a
// compute call, and each stage's span nests under the stage that asked
// for it.
func TestDoReentrantChainDoesNotDeadlock(t *testing.T) {
	var m store.Memo[string, int]
	root := obs.NewTracer().StartSpan("root", "")
	ctx := obs.ContextWithSpan(context.Background(), root)
	runWithDeadline(t, 10*time.Second, func() {
		v, err := Do(ctx, &m, "clustering", "", "clustering", func(ctx context.Context) (int, error) {
			tr, err := Do(ctx, &m, "trace", "", "trace", func(ctx context.Context) (int, error) {
				set, err := Do(ctx, &m, "markers", "", "markers", func(ctx context.Context) (int, error) {
					return Do(ctx, &m, "graph", "", "graph", func(context.Context) (int, error) { return 1, nil })
				})
				return set + 1, err
			})
			return tr + 1, err
		})
		if err != nil || v != 3 {
			t.Errorf("chained Do: got %d, %v", v, err)
		}
	})
	var chain []string
	for n := root.Snapshot(); len(n.Children) > 0; n = n.Children[0] {
		if len(n.Children) != 1 {
			t.Fatalf("%s has %d children, want 1", n.Name, len(n.Children))
		}
		chain = append(chain, n.Children[0].Name)
	}
	if want := []string{"clustering", "trace", "markers", "graph"}; !reflect.DeepEqual(chain, want) {
		t.Errorf("span chain = %v, want %v", chain, want)
	}
}

// TestDoDistinctKeysComputeConcurrently: key "a"'s compute blocks until
// key "b"'s has started, which terminates only if distinct keys do not
// serialize on one lock.
func TestDoDistinctKeysComputeConcurrently(t *testing.T) {
	var m store.Memo[string, int]
	ctx := context.Background()
	bStarted := make(chan struct{})
	runWithDeadline(t, 10*time.Second, func() {
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			Do(ctx, &m, "a", "", "a", func(context.Context) (int, error) {
				<-bStarted
				return 1, nil
			})
		}()
		go func() {
			defer wg.Done()
			Do(ctx, &m, "b", "", "b", func(context.Context) (int, error) {
				close(bStarted)
				return 2, nil
			})
		}()
		wg.Wait()
	})
}

// TestTraceMatchesMaterializedRun pins the memoized trace: the result a
// pipeline at an engine share (workers 4) memoizes must equal a serial
// materializing trace.Run (Workers 1) of the same Config, BBVs included.
func TestTraceMatchesMaterializedRun(t *testing.T) {
	seg := Segment{Workload: "lucas", FixedLen: 100_000}
	ctx := context.Background()
	p := New(4)
	got, err := p.Trace(ctx, seg)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := p.Config(ctx, seg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 1
	want, err := trace.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Intervals) != len(want.Intervals) {
		t.Fatalf("%d intervals, want %d", len(got.Intervals), len(want.Intervals))
	}
	for i := range want.Intervals {
		if !reflect.DeepEqual(got.Intervals[i], want.Intervals[i]) {
			t.Fatalf("interval %d = %+v, want %+v", i, got.Intervals[i], want.Intervals[i])
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("run totals differ: got %+v, want %+v", *got, *want)
	}
}
