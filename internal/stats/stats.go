// Package stats provides the small statistical toolkit used throughout the
// phase-marker analysis: streaming (Welford) moment accumulators, weighted
// summary statistics, coefficient-of-variation helpers, a deterministic
// splittable RNG, and random projection matrices for basic-block vectors.
//
// Everything here is deterministic: no global state, no time- or
// math/rand-seeded randomness. Experiments are reproducible bit-for-bit.
package stats

import (
	"fmt"
	"math"
)

// Welford accumulates a stream of float64 observations and yields count,
// mean, variance, standard deviation, min and max in O(1) space using
// Welford's numerically stable online algorithm.
type Welford struct {
	n    uint64
	mean float64
	m2   float64
	min  float64
	max  float64
	sum  float64
}

// Add folds one observation into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	w.sum += x
	if w.n == 1 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// N reports the number of observations.
func (w *Welford) N() uint64 { return w.n }

// Sum reports the running total of all observations.
func (w *Welford) Sum() float64 { return w.sum }

// Mean reports the arithmetic mean, or 0 with no observations.
func (w *Welford) Mean() float64 { return w.mean }

// Min reports the smallest observation, or 0 with no observations.
func (w *Welford) Min() float64 { return w.min }

// Max reports the largest observation, or 0 with no observations.
func (w *Welford) Max() float64 { return w.max }

// Variance reports the population variance (divide by n).
func (w *Welford) Variance() float64 {
	if w.n == 0 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// StdDev reports the population standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// CoV reports the coefficient of variation (stddev / mean). A zero mean
// yields 0 so that empty or constant-zero streams read as perfectly stable.
func (w *Welford) CoV() float64 {
	if w.mean == 0 {
		return 0
	}
	return math.Abs(w.StdDev() / w.mean)
}

// String renders a compact human-readable summary.
func (w *Welford) String() string {
	return fmt.Sprintf("n=%d mean=%.4g std=%.4g cov=%.4g min=%.4g max=%.4g",
		w.n, w.Mean(), w.StdDev(), w.CoV(), w.min, w.max)
}

// Weighted accumulates weighted observations. It is used for per-phase
// behavior statistics where each interval is weighted by its instruction
// count, so long intervals dominate the phase CoV as in the paper (§3.1).
type Weighted struct {
	wsum  float64
	mean  float64
	m2    float64 // weighted sum of squared deviations
	count uint64
}

// Add folds in observation x with weight w (w <= 0 is ignored).
func (a *Weighted) Add(x, w float64) {
	if w <= 0 {
		return
	}
	a.count++
	a.wsum += w
	delta := x - a.mean
	a.mean += delta * w / a.wsum
	a.m2 += w * delta * (x - a.mean)
}

// N reports the number of (nonzero-weight) observations.
func (a *Weighted) N() uint64 { return a.count }

// WeightSum reports the total weight observed.
func (a *Weighted) WeightSum() float64 { return a.wsum }

// Mean reports the weighted mean.
func (a *Weighted) Mean() float64 { return a.mean }

// Variance reports the weighted population variance.
func (a *Weighted) Variance() float64 {
	if a.wsum == 0 {
		return 0
	}
	return a.m2 / a.wsum
}

// StdDev reports the weighted population standard deviation.
func (a *Weighted) StdDev() float64 { return math.Sqrt(a.Variance()) }

// CoV reports the weighted coefficient of variation.
func (a *Weighted) CoV() float64 {
	if a.mean == 0 {
		return 0
	}
	return math.Abs(a.StdDev() / a.mean)
}
