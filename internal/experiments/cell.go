package experiments

import (
	"phasemark/internal/obs"
	"phasemark/internal/store"
)

// Process-wide cell metrics, so the suite's cache behavior is visible in
// `spexp -metrics` output. A "miss" is a fresh computation (including the
// retry after a failed flight); a "join" waited on another caller's
// successful flight; a "join_err" waited on a flight whose leader failed —
// distinct from a retry, which computes.
var (
	obsCellHits     = obs.NewCounter("cell.hit")
	obsCellMisses   = obs.NewCounter("cell.miss")
	obsCellJoins    = obs.NewCounter("cell.join")
	obsCellJoinErrs = obs.NewCounter("cell.join_err")
	obsCellErrs     = obs.NewCounter("cell.compute_err")
)

// cellMap is a keyed set of singleflight memoization cells: a store.Memo
// (the first caller of a key computes, concurrent callers block on that
// computation rather than on a suite-wide lock, a successful value is
// cached forever, errors are not) whose outcomes feed the cell counters.
//
// No lock is held while compute runs, so a compute function may freely
// call get on *other* keys (the figure harnesses chain graph → marker set
// → trace → clustering). Re-entering the *same* key from its own compute
// function would deadlock, exactly like a recursive sync.Once.Do.
type cellMap[K comparable, V any] struct {
	memo store.Memo[K, V]
}

// get returns k's cached value, joins its in-flight computation, or runs
// compute itself.
func (cm *cellMap[K, V]) get(k K, compute func() (V, error)) (V, error) {
	v, outcome, err := cm.memo.DoOutcome(k, compute)
	switch {
	case outcome == store.Hit:
		obsCellHits.Inc()
	case outcome == store.Joined && err != nil:
		// Joined a failed flight: the waiter shares the leader's error but
		// did no work — counted apart from the fresh retry the next caller
		// will perform.
		obsCellJoinErrs.Inc()
	case outcome == store.Joined:
		obsCellJoins.Inc()
	default:
		obsCellMisses.Inc()
		if err != nil {
			obsCellErrs.Inc()
		}
	}
	return v, err
}
