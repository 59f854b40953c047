package experiments

import (
	"errors"
	"sync"
	"testing"
	"time"

	"phasemark/internal/obs"
)

// cellCounterNames are the process-wide metrics every cellMap access
// feeds (see the var block at the top of cell.go).
var cellCounterNames = []string{
	"cell.hit", "cell.miss", "cell.join", "cell.join_err", "cell.compute_err",
}

// snapCellCounters reads the registry's cell counters by name —
// obs.NewCounter find-or-creates, so this observes the same counters the
// cellMaps increment.
func snapCellCounters() map[string]uint64 {
	s := make(map[string]uint64, len(cellCounterNames))
	for _, name := range cellCounterNames {
		s[name] = obs.NewCounter(name).Load()
	}
	return s
}

// TestCellObsCounterDeltas drives each cell access pattern against a
// fresh cellMap and asserts the exact delta it leaves on the process-wide
// obs counters, alongside the error each caller must observe. The
// registry is process-global, so each case measures before/after deltas
// rather than absolute values (the package's tests run sequentially).
func TestCellObsCounterDeltas(t *testing.T) {
	boom := errors.New("boom")
	cases := []struct {
		name string
		// run drives a fresh cellMap and returns the errors its callers saw,
		// in a scenario-defined order.
		run  func(t *testing.T) []error
		want map[string]uint64
		errs []error // expected caller errors, matching run's order
	}{
		{
			name: "compute then hit",
			run: func(t *testing.T) []error {
				var c cellMap[string, int]
				_, err1 := c.get("k", func() (int, error) { return 1, nil })
				_, err2 := c.get("k", func() (int, error) { return 2, nil })
				return []error{err1, err2}
			},
			want: map[string]uint64{"cell.miss": 1, "cell.hit": 1},
			errs: []error{nil, nil},
		},
		{
			name: "compute error propagates and is retried",
			run: func(t *testing.T) []error {
				var c cellMap[string, int]
				_, err1 := c.get("k", func() (int, error) { return 0, boom })
				// Errors are not cached: the next caller computes afresh.
				_, err2 := c.get("k", func() (int, error) { return 7, nil })
				_, err3 := c.get("k", func() (int, error) { return 8, nil })
				return []error{err1, err2, err3}
			},
			want: map[string]uint64{"cell.miss": 2, "cell.compute_err": 1, "cell.hit": 1},
			errs: []error{boom, nil, nil},
		},
		{
			name: "join of a successful flight",
			run: func(t *testing.T) []error {
				var c cellMap[string, int]
				entered := make(chan struct{})
				release := make(chan struct{})
				var wg sync.WaitGroup
				errs := make([]error, 2)
				wg.Add(1)
				go func() {
					defer wg.Done()
					_, errs[0] = c.get("k", func() (int, error) {
						close(entered)
						<-release
						return 42, nil
					})
				}()
				<-entered
				wg.Add(1)
				go func() {
					defer wg.Done()
					_, errs[1] = c.get("k", func() (int, error) { return 0, errors.New("waiter must not compute") })
				}()
				time.Sleep(50 * time.Millisecond) // let the waiter block on the flight
				close(release)
				wg.Wait()
				return errs
			},
			want: map[string]uint64{"cell.miss": 1, "cell.join": 1},
			errs: []error{nil, nil},
		},
		{
			name: "join of a failed flight",
			run: func(t *testing.T) []error {
				var c cellMap[string, int]
				entered := make(chan struct{})
				release := make(chan struct{})
				var wg sync.WaitGroup
				errs := make([]error, 2)
				wg.Add(1)
				go func() {
					defer wg.Done()
					_, errs[0] = c.get("k", func() (int, error) {
						close(entered)
						<-release
						return 0, boom
					})
				}()
				<-entered
				wg.Add(1)
				go func() {
					defer wg.Done()
					_, errs[1] = c.get("k", func() (int, error) { return 0, errors.New("waiter must not compute") })
				}()
				time.Sleep(50 * time.Millisecond)
				close(release)
				wg.Wait()
				return errs
			},
			// The leader's failure is one compute_err; the waiter's shared
			// failure is one join_err — NOT a second compute_err, and not a
			// retry.
			want: map[string]uint64{"cell.miss": 1, "cell.compute_err": 1, "cell.join_err": 1},
			errs: []error{boom, boom},
		},
		{
			name: "cellMap aggregates per-key cells",
			run: func(t *testing.T) []error {
				var cm cellMap[string, int]
				_, err1 := cm.get("a", func() (int, error) { return 1, nil })
				_, err2 := cm.get("b", func() (int, error) { return 0, boom })
				_, err3 := cm.get("a", func() (int, error) { return 9, nil })
				return []error{err1, err2, err3}
			},
			want: map[string]uint64{"cell.miss": 2, "cell.compute_err": 1, "cell.hit": 1},
			errs: []error{nil, boom, nil},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := snapCellCounters()
			errs := tc.run(t)
			after := snapCellCounters()
			for _, name := range cellCounterNames {
				if got, want := after[name]-before[name], tc.want[name]; got != want {
					t.Errorf("%s delta = %d, want %d", name, got, want)
				}
			}
			if len(errs) != len(tc.errs) {
				t.Fatalf("run returned %d errors, scenario defines %d", len(errs), len(tc.errs))
			}
			for i := range errs {
				if !errors.Is(errs[i], tc.errs[i]) && errs[i] != tc.errs[i] {
					t.Errorf("caller %d error = %v, want %v", i, errs[i], tc.errs[i])
				}
			}
		})
	}
}
