package adapt

// PolicyResult summarizes an adaptive (or fixed) cache policy over one
// execution.
type PolicyResult struct {
	AvgCacheKB float64 // instruction-weighted average configured size
	MissRate   float64 // overall miss rate achieved by the policy
	BaseRate   float64 // miss rate of the largest (256 KB) configuration
	Phases     int     // distinct phase IDs seen
}

// ExploreIntervals is how many intervals per phase are spent experimenting
// before the phase's best configuration is locked in (the paper uses two).
const ExploreIntervals = 2

// Evaluate applies the explore-then-reuse reconfiguration policy to a
// segmented multi-configuration run. During a phase's first
// ExploreIntervals intervals the full-size cache is charged (experimenting
// must be conservative); afterwards the phase's chosen configuration — the
// smallest with no more misses than the largest over the exploration
// intervals — is charged whenever the phase recurs.
//
// phaseOf overrides the recorded phase IDs when non-nil (used to feed
// SimPoint cluster IDs to the fixed-interval baseline).
func Evaluate(res *RunResult, phaseOf func(i int) int) PolicyResult {
	type phaseState struct {
		seen     int
		misses   [NumConfigs]uint64
		accesses uint64
		locked   int // config index once chosen; -1 while exploring
	}
	states := map[int]*phaseState{}
	var weightedKB, totalInstr float64
	var polMisses, totAcc, bigMisses uint64

	for i, iv := range res.Intervals {
		ph := iv.Phase
		if phaseOf != nil {
			ph = phaseOf(i)
		}
		st := states[ph]
		if st == nil {
			st = &phaseState{locked: -1}
			states[ph] = st
		}
		var cfg int
		if st.locked >= 0 {
			cfg = st.locked
		} else {
			cfg = NumConfigs - 1 // explore at full size
			st.seen++
			for c := range st.misses {
				st.misses[c] += iv.Misses[c]
			}
			st.accesses += iv.Accesses
			if st.seen >= ExploreIntervals {
				st.locked = chooseConfig(st.misses)
			}
		}
		weightedKB += float64(SizeKB(cfg)) * float64(iv.Instrs)
		totalInstr += float64(iv.Instrs)
		polMisses += iv.Misses[cfg]
		totAcc += iv.Accesses
		bigMisses += iv.Misses[NumConfigs-1]
	}

	out := PolicyResult{Phases: len(states)}
	if totalInstr > 0 {
		out.AvgCacheKB = weightedKB / totalInstr
	}
	if totAcc > 0 {
		out.MissRate = float64(polMisses) / float64(totAcc)
		out.BaseRate = float64(bigMisses) / float64(totAcc)
	}
	return out
}

// chooseConfig picks the smallest configuration whose miss count does not
// exceed the largest configuration's ("no allowed increase in miss rate").
func chooseConfig(misses [NumConfigs]uint64) int {
	target := misses[NumConfigs-1]
	for c := 0; c < NumConfigs; c++ {
		if misses[c] <= target {
			return c
		}
	}
	return NumConfigs - 1
}

// BestFixed returns the smallest fixed configuration achieving the maximum
// hit rate over the whole run, as a PolicyResult (the "Best Fixed Size"
// bar of Figure 10).
func BestFixed(res *RunResult) PolicyResult {
	var misses [NumConfigs]uint64
	var acc uint64
	for _, iv := range res.Intervals {
		for c := range misses {
			misses[c] += iv.Misses[c]
		}
		acc += iv.Accesses
	}
	c := chooseConfig(misses)
	out := PolicyResult{AvgCacheKB: float64(SizeKB(c)), Phases: 1}
	if acc > 0 {
		out.MissRate = float64(misses[c]) / float64(acc)
		out.BaseRate = float64(misses[NumConfigs-1]) / float64(acc)
	}
	return out
}
