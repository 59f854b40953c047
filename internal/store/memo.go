package store

import (
	"errors"
	"sync"
)

// errComputePanicked is what callers waiting on a computation get when
// that compute panics.
var errComputePanicked = errors.New("store: compute panicked")

// flight is one in-progress computation of a key, shared by every
// concurrent requester of it: Memo's compute and Store's
// disk-check-then-compute alike. The leader writes val and err exactly
// once before closing ch; err starts as errComputePanicked and stays so
// unless the leader's compute returns, so a leader that panics fails
// its flight when the deferred release closes ch.
type flight[V any] struct {
	ch  chan struct{}
	val V
	err error
}

func newFlight[V any]() *flight[V] {
	return &flight[V]{ch: make(chan struct{}), err: errComputePanicked}
}

// Memo is the in-memory counterpart of Store: a keyed, compute-once cache
// with singleflight semantics for values that are too expensive (or
// impossible) to serialize to disk — compiled programs, profiled graphs,
// traced executions. It backs internal/artifact, the memo layer of both
// the phased pipeline and the experiments suite. The first requester of a key
// computes, concurrent requesters block on that one computation, and a
// successful value is cached for the Memo's lifetime. Errors are not
// cached: waiters of a failed flight share the leader's error, and the
// next requester retries. A panicking compute fails its flight the same
// way: waiters get an error, and the panic continues in the caller that
// ran compute.
//
// The same re-entrancy contract as Store.GetOrCompute applies: compute
// runs with no lock held, so it may compute other keys (or other Memos)
// through DoOutcome, but re-entering its own key deadlocks.
type Memo[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*memoEntry[V]
}

type memoEntry[V any] struct {
	done     bool
	val      V
	inflight *flight[V]
}

// DoOutcome returns the cached value for k, joins an in-flight
// computation, or runs compute itself. It also reports which of the three
// happened, so request-scoped telemetry can tag each memoized pipeline
// stage the same way the artifact store tags whole responses: Hit (the
// value was already cached), Joined (waited on another caller's in-flight
// compute), or Computed (this caller ran compute).
func (m *Memo[K, V]) DoOutcome(k K, compute func() (V, error)) (V, Outcome, error) {
	m.mu.Lock()
	if m.m == nil {
		m.m = map[K]*memoEntry[V]{}
	}
	e := m.m[k]
	if e == nil {
		e = &memoEntry[V]{}
		m.m[k] = e
	}
	if e.done {
		v := e.val
		m.mu.Unlock()
		return v, Hit, nil
	}
	if f := e.inflight; f != nil {
		m.mu.Unlock()
		<-f.ch
		return f.val, Joined, f.err
	}
	f := newFlight[V]()
	e.inflight = f
	m.mu.Unlock()
	defer func() {
		m.mu.Lock()
		if f.err == nil {
			e.val, e.done = f.val, true
		}
		e.inflight = nil
		m.mu.Unlock()
		close(f.ch)
	}()

	f.val, f.err = compute()
	return f.val, Computed, f.err
}

// Len reports how many keys hold a cached value.
func (m *Memo[K, V]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, e := range m.m {
		if e.done {
			n++
		}
	}
	return n
}
