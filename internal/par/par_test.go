package par

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachCoversRangeAtEveryWidth(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 4, runtime.NumCPU(), 64} {
		n := 137
		var hits [137]int32
		ForEach(n, workers, nil, func(worker, i int) {
			atomic.AddInt32(&hits[i], 1)
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d ran %d times, want exactly once", workers, i, h)
			}
		}
	}
}

func TestForEachWorkerIDsAreDense(t *testing.T) {
	const n, workers = 200, 4
	var seen [workers + 1]int32 // extra slot traps out-of-range ids via panic-free check
	ForEach(n, workers, nil, func(worker, i int) {
		if worker < 0 || worker >= workers {
			atomic.AddInt32(&seen[workers], 1)
			return
		}
		atomic.AddInt32(&seen[worker], 1)
		time.Sleep(time.Microsecond) // give every worker a chance to pick up work
	})
	if seen[workers] != 0 {
		t.Fatalf("worker id out of [0, %d)", workers)
	}
	var total int32
	for _, c := range seen[:workers] {
		total += c
	}
	if total != n {
		t.Fatalf("worker hit counts sum to %d, want %d", total, n)
	}
}

func TestForEachSerialRunsInOrder(t *testing.T) {
	var order []int
	ForEach(10, 1, nil, func(worker, i int) {
		if worker != 0 {
			t.Fatalf("serial path used worker %d", worker)
		}
		order = append(order, i)
	})
	for i, v := range order {
		if v != i {
			t.Fatalf("serial order[%d] = %d", i, v)
		}
	}
}

func TestForEachClampsWorkersToN(t *testing.T) {
	// n=1 with many workers must take the inline path (worker 0 only).
	ForEach(1, 16, nil, func(worker, i int) {
		if worker != 0 {
			t.Fatalf("n=1 ran on worker %d", worker)
		}
	})
	ForEach(0, 4, nil, func(worker, i int) {
		t.Fatal("fn called with n=0")
	})
}

func TestShare(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, c := range []struct{ n, want int }{{-1, 4}, {0, 4}, {1, 4}, {2, 2}, {3, 1}, {4, 1}, {16, 1}} {
		if got := Share(c.n); got != c.want {
			t.Errorf("Share(%d) at GOMAXPROCS 4 = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestForEachObs(t *testing.T) {
	var execs, waits atomic.Int32
	obs := &Obs{
		QueueWait: func(d time.Duration) {
			if d < 0 {
				t.Errorf("negative queue wait %v", d)
			}
			waits.Add(1)
		},
		Exec: func(d time.Duration) {
			if d < 0 {
				t.Errorf("negative exec %v", d)
			}
			execs.Add(1)
		},
	}
	ForEach(20, 3, obs, func(worker, i int) {})
	if execs.Load() != 20 || waits.Load() != 20 {
		t.Fatalf("parallel obs: %d execs, %d waits, want 20 each", execs.Load(), waits.Load())
	}

	execs.Store(0)
	waits.Store(0)
	ForEach(5, 1, obs, func(worker, i int) {})
	if execs.Load() != 5 {
		t.Fatalf("serial obs: %d execs, want 5", execs.Load())
	}
	if waits.Load() != 0 {
		t.Fatalf("serial path observed %d queue waits, want 0 (nothing queues)", waits.Load())
	}
}
