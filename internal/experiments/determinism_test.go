package experiments

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"phasemark/internal/core"
	"phasemark/internal/simpoint"
	"phasemark/internal/trace"
	"phasemark/internal/workloads"
)

// TestFig7DeterministicAcrossParallelism runs a representative figure on
// two fresh suites — serial and 8-way parallel — and requires byte-
// identical table output: the worker-pool fan-out must not be able to
// change the paper's numbers or their order.
func TestFig7DeterministicAcrossParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("two full Figure 7 evaluations take minutes; skipped in -short")
	}
	if raceEnabled {
		t.Skip("too slow under -race; TestConcurrentSuiteSharedArtifacts covers the engine")
	}
	render := func(jobs int) string {
		tab, err := NewSuite(jobs).Fig7(context.Background())
		if err != nil {
			t.Fatalf("-j %d: %v", jobs, err)
		}
		return tab.String()
	}
	serial := render(1)
	parallel := render(8)
	if serial != parallel {
		t.Errorf("Figure 7 differs between -j 1 and -j 8:\n--- j=1 ---\n%s\n--- j=8 ---\n%s", serial, parallel)
	}
}

// TestConcurrentSuiteSharedArtifacts hammers one workload's artifacts
// from many goroutines — including three marker configs that select on the
// SAME shared ref graph — and checks the singleflight guarantee: every
// caller observes the identical artifact instance. This is the test the
// race detector bites on, and it is cheap enough to run under -race.
func TestConcurrentSuiteSharedArtifacts(t *testing.T) {
	s := NewSuite(runtime.GOMAXPROCS(0))
	ctx := context.Background()
	w, err := workloads.ByName("art")
	if err != nil {
		t.Fatal(err)
	}
	const callers = 8
	type view struct {
		graph *core.Graph
		sets  map[string]*core.MarkerSet
		trace *trace.Result
	}
	views := make([]view, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v := view{sets: map[string]*core.MarkerSet{}}
			var err error
			if v.graph, err = s.pl.Graph(ctx, w.Name, true); err != nil {
				errs[i] = err
				return
			}
			// These three configs all select on the ref graph concurrently.
			for _, name := range []string{"no-limit self", "procs no-limit self", "limit 100k-2m"} {
				set, err := s.markers(ctx, w, name)
				if err != nil {
					errs[i] = err
					return
				}
				v.sets[name] = set
			}
			if v.trace, err = s.traced(ctx, w, fixedMode(FixedLen)); err != nil {
				errs[i] = err
				return
			}
			views[i] = v
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	for i := 1; i < callers; i++ {
		if views[i].graph != views[0].graph {
			t.Errorf("caller %d computed a second ref graph", i)
		}
		for name, set := range views[i].sets {
			if set != views[0].sets[name] {
				t.Errorf("caller %d computed a second %q marker set", i, name)
			}
		}
		if views[i].trace != views[0].trace {
			t.Errorf("caller %d computed a second fixed trace", i)
		}
	}
	if len(views[0].sets["no-limit self"].Markers) == 0 {
		t.Error("shared marker set is empty")
	}
}

// TestClusteringKeyIncludesSeed pins that a clustering is memoized per
// seed: after one suite clusters bzip2's fixed 100k trace at kmax 10 with
// Figure 7's seed (0xb5e), asking for Figures 11/12's seed (0x1112) must
// classify that trace afresh, not hand back the first clustering.
func TestClusteringKeyIncludesSeed(t *testing.T) {
	s := NewSuite(runtime.GOMAXPROCS(0))
	ctx := context.Background()
	w, err := workloads.ByName("bzip2")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.clustered(ctx, w, fixedMode(SPFixed10), 10, 0xb5e); err != nil {
		t.Fatal(err)
	}
	got, res, err := s.clustered(ctx, w, fixedMode(SPFixed10), 10, 0x1112)
	if err != nil {
		t.Fatal(err)
	}
	want := simpoint.Classify(res, simpoint.Options{KMax: 10, Dims: 15, Seed: 0x1112, Restarts: 2, MaxIters: 40})
	if !reflect.DeepEqual(got, want) {
		t.Errorf("seed 0x1112 clustering: K %d assign %v, want K %d assign %v", got.K, got.Assign, want.K, want.Assign)
	}
}

// TestForEachWorkloadOrderAndErrors pins the pool's contract: every index
// is visited exactly once, and the reported error is the lowest-indexed
// failure regardless of scheduling.
func TestForEachWorkloadOrderAndErrors(t *testing.T) {
	ws := workloads.All()
	for _, jobs := range []int{1, 3, 16} {
		s := NewSuite(jobs)
		visited := make([]int, len(ws))
		var mu sync.Mutex
		err := s.ForEachWorkload(ws, func(i int, w *workloads.Workload) error {
			if ws[i] != w {
				t.Errorf("-j %d: index %d paired with workload %s", jobs, i, w.Name)
			}
			mu.Lock()
			visited[i]++
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatalf("-j %d: %v", jobs, err)
		}
		for i, n := range visited {
			if n != 1 {
				t.Errorf("-j %d: index %d visited %d times", jobs, i, n)
			}
		}

		// Two failures: the lowest-indexed one must win deterministically.
		errLow := errors.New("low")
		err = s.ForEachWorkload(ws, func(i int, w *workloads.Workload) error {
			switch i {
			case 2:
				return errLow
			case len(ws) - 1:
				return fmt.Errorf("high")
			}
			return nil
		})
		if !errors.Is(err, errLow) {
			t.Errorf("-j %d: got error %v, want the lowest-indexed failure", jobs, err)
		}
	}
}
