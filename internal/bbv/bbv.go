// Package bbv implements basic block vectors (§2.2): per-interval
// fingerprints where each dimension is a static basic block and each entry
// is the block's execution count times its instruction count. Vectors are
// stored sparsely, normalized to unit L1 mass for comparison, and reduced
// by random linear projection for clustering and visualization.
package bbv

import (
	"math"
	"slices"

	"phasemark/internal/stats"
)

// Vector is a sparse basic block vector: parallel slices of block IDs
// (ascending) and size-weighted execution counts.
type Vector struct {
	Idx []int32
	Val []float64
}

// L1 reports the vector's L1 mass (total weighted instruction count).
func (v Vector) L1() float64 {
	var s float64
	for _, x := range v.Val {
		s += x
	}
	return s
}

// Normalized returns a copy scaled to unit L1 mass (zero vectors are
// copied unscaled). The copy is deep: it shares no storage with the
// receiver, so callers may mutate either vector freely.
func (v Vector) Normalized() Vector {
	s := v.L1()
	out := Vector{Idx: slices.Clone(v.Idx), Val: make([]float64, len(v.Val))}
	if s == 0 {
		copy(out.Val, v.Val)
		return out
	}
	for i, x := range v.Val {
		out.Val[i] = x / s
	}
	return out
}

// ManhattanNormed computes the L1 distance between the two vectors after
// normalizing each to unit mass — SimPoint's interval similarity measure.
func ManhattanNormed(a, b Vector) float64 {
	an, bn := a.Normalized(), b.Normalized()
	var d float64
	i, j := 0, 0
	for i < len(an.Idx) && j < len(bn.Idx) {
		switch {
		case an.Idx[i] == bn.Idx[j]:
			d += math.Abs(an.Val[i] - bn.Val[j])
			i++
			j++
		case an.Idx[i] < bn.Idx[j]:
			d += an.Val[i]
			i++
		default:
			d += bn.Val[j]
			j++
		}
	}
	for ; i < len(an.Idx); i++ {
		d += an.Val[i]
	}
	for ; j < len(bn.Idx); j++ {
		d += bn.Val[j]
	}
	return d
}

// ProjectInto reduces the normalized vector to p.Out dimensions, written
// into dst (length p.Out) without allocating. The projection is linear,
// so instead of materializing a normalized copy it projects the raw
// values and scales the p.Out outputs by 1/L1 — replacing a per-entry
// division and an index-widening copy with p.Out multiplications.
func (v Vector) ProjectInto(dst []float64, p *stats.Projection) {
	p.ApplySparse32Into(dst, v.Idx, v.Val)
	if s := v.L1(); s != 0 {
		inv := 1 / s
		for o := range dst {
			dst[o] *= inv
		}
	}
}

// Accumulator gathers block executions for the current interval using a
// dense scratch array plus a touched list, snapshotting to sparse vectors
// at interval boundaries. The scratch is reused across cuts, and snapshot
// storage is carved from append-only chunks, so a long segmented run costs
// one allocation per ~chunk of intervals rather than two per interval.
type Accumulator struct {
	counts  []float64
	touched []int32

	// Snapshot chunks: carved regions are never written again (vectors are
	// immutable once returned), so the chunks can be shared by every
	// snapshot cut from them.
	idxChunk []int32
	valChunk []float64
}

// snapshotChunk is the allocation granularity for snapshot storage
// (entries; one chunk serves many sparse intervals).
const snapshotChunk = 1 << 12

// NewAccumulator sizes the scratch for numBlocks static blocks.
func NewAccumulator(numBlocks int) *Accumulator {
	return &Accumulator{counts: make([]float64, numBlocks)}
}

// Touch records one execution of block id with the given instruction
// weight.
func (a *Accumulator) Touch(id int, weight int) {
	if a.counts[id] == 0 {
		a.touched = append(a.touched, int32(id))
	}
	a.counts[id] += float64(weight)
}

// Snapshot extracts the accumulated vector and resets the accumulator.
// The returned vector's storage comes from the accumulator's internal
// chunks; it stays valid (and immutable) for the life of the vector.
func (a *Accumulator) Snapshot() Vector {
	slices.Sort(a.touched)
	n := len(a.touched)
	if len(a.idxChunk)+n > cap(a.idxChunk) {
		a.idxChunk = make([]int32, 0, max(n, snapshotChunk))
		a.valChunk = make([]float64, 0, max(n, snapshotChunk))
	}
	li, lv := len(a.idxChunk), len(a.valChunk)
	a.idxChunk = a.idxChunk[: li+n : cap(a.idxChunk)]
	a.valChunk = a.valChunk[: lv+n : cap(a.valChunk)]
	v := Vector{
		Idx: a.idxChunk[li : li+n : li+n],
		Val: a.valChunk[lv : lv+n : lv+n],
	}
	for i, id := range a.touched {
		v.Idx[i] = id
		v.Val[i] = a.counts[id]
		a.counts[id] = 0
	}
	a.touched = a.touched[:0]
	return v
}

// Rewind reclaims all snapshot storage handed out since the accumulator
// was created or last rewound. Every Vector previously returned by
// Snapshot becomes invalid: its entries will be overwritten by future
// snapshots. Only streaming consumers that have finished with (or deep-
// copied) their chunk of vectors may call this — see the streaming stage
// contract in DESIGN.md.
func (a *Accumulator) Rewind() {
	a.idxChunk = a.idxChunk[:0]
	a.valChunk = a.valChunk[:0]
}
