package experiments

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// runWithDeadline fails the test with a useful message instead of hanging
// the whole package when a cell misbehaves (the deadlock cases below).
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
		t.Fatal("deadlock: cell operation did not complete")
	}
}

func TestCellConcurrentCallersShareOneComputation(t *testing.T) {
	var c cellMap[string, int]
	var computes atomic.Int32
	var wg sync.WaitGroup
	vals := make([]int, 32)
	for i := range vals {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := c.get("k", func() (int, error) {
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
}

func TestCellErrorsAreNotCached(t *testing.T) {
	var c cellMap[string, int]
	boom := errors.New("boom")
	var computes atomic.Int32

	// Leader fails while concurrent waiters are blocked on its flight:
	// every one of them observes the leader's error, none recompute.
	release := make(chan struct{})
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := c.get("k", func() (int, error) {
				computes.Add(1)
				<-release
				return 0, boom
			})
			errs[i] = err
		}()
	}
	time.Sleep(20 * time.Millisecond) // let the waiters pile up on the flight
	close(release)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Errorf("failing compute ran %d times, want 1", n)
	}
	for i, err := range errs {
		if !errors.Is(err, boom) {
			t.Errorf("waiter %d got %v, want boom", i, err)
		}
	}

	// The failure is not cached: the next caller retries and can succeed.
	v, err := c.get("k", func() (int, error) {
		computes.Add(1)
		return 7, nil
	})
	if err != nil || v != 7 {
		t.Fatalf("retry after error: got %d, %v", v, err)
	}
	if n := computes.Load(); n != 2 {
		t.Errorf("computes after retry = %d, want 2", n)
	}

	// And the success IS cached.
	v, err = c.get("k", func() (int, error) {
		computes.Add(1)
		return -1, nil
	})
	if err != nil || v != 7 {
		t.Fatalf("cached read: got %d, %v", v, err)
	}
	if n := computes.Load(); n != 2 {
		t.Errorf("cached read recomputed: computes = %d, want 2", n)
	}
}

// cellDeltas reports how far each cell counter moved since before.
func cellDeltas(before map[string]uint64) map[string]uint64 {
	d := map[string]uint64{}
	for name, v := range snapCellCounters() {
		if v != before[name] {
			d[name] = v - before[name]
		}
	}
	return d
}

func checkDeltas(t *testing.T, stage string, got, want map[string]uint64) {
	t.Helper()
	for _, name := range cellCounterNames {
		if got[name] != want[name] {
			t.Errorf("%s: %s delta = %d, want %d (all deltas %v)", stage, name, got[name], want[name], got)
		}
	}
}

func TestCellStatsAccounting(t *testing.T) {
	var c cellMap[string, int]
	boom := errors.New("boom")
	before := snapCellCounters()

	// A failing leader with concurrent waiters: the leader is one miss
	// (and one compute error); each waiter is a join_err, NOT a miss —
	// they did no work and must not be confused with the fresh retry
	// below.
	entered := make(chan struct{})
	var enterOnce sync.Once
	release := make(chan struct{})
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.get("k", func() (int, error) {
				enterOnce.Do(func() { close(entered) })
				<-release
				return 0, boom
			})
		}()
	}
	<-entered                         // a leader took the flight
	time.Sleep(20 * time.Millisecond) // let the other three pile up as waiters
	close(release)
	wg.Wait()
	checkDeltas(t, "after failed flight", cellDeltas(before),
		map[string]uint64{"cell.miss": 1, "cell.join_err": 3, "cell.compute_err": 1})

	// The fresh retry after the failure is a distinct miss.
	if _, err := c.get("k", func() (int, error) { return 7, nil }); err != nil {
		t.Fatal(err)
	}
	checkDeltas(t, "after retry", cellDeltas(before),
		map[string]uint64{"cell.miss": 2, "cell.join_err": 3, "cell.compute_err": 1})

	// Cached reads are hits.
	c.get("k", func() (int, error) { return -1, nil })
	c.get("k", func() (int, error) { return -1, nil })
	checkDeltas(t, "after cached reads", cellDeltas(before),
		map[string]uint64{"cell.hit": 2, "cell.miss": 2, "cell.join_err": 3, "cell.compute_err": 1})

	// Waiters on a successful flight are joins.
	var c2 cellMap[string, int]
	before = snapCellCounters()
	started := make(chan struct{})
	go2 := make(chan struct{})
	var wg2 sync.WaitGroup
	wg2.Add(1)
	go func() {
		defer wg2.Done()
		c2.get("k", func() (int, error) {
			close(started)
			<-go2
			return 1, nil
		})
	}()
	<-started
	for range 2 {
		wg2.Add(1)
		go func() {
			defer wg2.Done()
			c2.get("k", func() (int, error) { return 0, errors.New("never runs") })
		}()
	}
	time.Sleep(20 * time.Millisecond)
	close(go2)
	wg2.Wait()
	checkDeltas(t, "successful flight", cellDeltas(before),
		map[string]uint64{"cell.miss": 1, "cell.join": 2})
}

func TestCellMapStatsAggregate(t *testing.T) {
	var cm cellMap[string, int]
	before := snapCellCounters()
	cm.get("a", func() (int, error) { return 1, nil }) // miss
	cm.get("a", func() (int, error) { return 1, nil }) // hit
	cm.get("b", func() (int, error) { return 2, nil }) // miss
	checkDeltas(t, "cellMap", cellDeltas(before), map[string]uint64{"cell.hit": 1, "cell.miss": 2})
}

func TestCellReentrantChainDoesNotDeadlock(t *testing.T) {
	// The figure harnesses chain cells: a clustering computes from a
	// trace, which computes from a marker set, which computes from a
	// graph. No lock may be held across a compute call.
	var cm cellMap[string, int]
	runWithDeadline(t, 10*time.Second, func() {
		v, err := cm.get("clustering", func() (int, error) {
			tr, err := cm.get("trace", func() (int, error) {
				set, err := cm.get("markers", func() (int, error) {
					return cm.get("graph", func() (int, error) { return 1, nil })
				})
				if err != nil {
					return 0, err
				}
				return set + 1, nil
			})
			if err != nil {
				return 0, err
			}
			return tr + 1, nil
		})
		if err != nil || v != 3 {
			t.Errorf("chained cells: got %d, %v", v, err)
		}
	})
}

func TestCellMapDistinctKeysComputeConcurrently(t *testing.T) {
	// Key "a"'s compute blocks until key "b"'s compute has started: this
	// only terminates if distinct keys do not serialize on one lock.
	var cm cellMap[string, int]
	bStarted := make(chan struct{})
	runWithDeadline(t, 10*time.Second, func() {
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			cm.get("a", func() (int, error) {
				<-bStarted
				return 1, nil
			})
		}()
		go func() {
			defer wg.Done()
			cm.get("b", func() (int, error) {
				close(bStarted)
				return 2, nil
			})
		}()
		wg.Wait()
	})
}
