package stats

import "math"

// RNG is a small, fast, deterministic pseudo-random generator
// (splitmix64). It exists so experiments never depend on math/rand global
// state and are reproducible across runs and Go versions.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. Distinct seeds yield
// independent-looking streams.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a pseudo-random int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a pseudo-random float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a standard-normal variate via the Box-Muller
// transform (the polar form, rejection-free variant is unnecessary here).
func (r *RNG) NormFloat64() float64 {
	// Avoid log(0).
	u1 := 1 - r.Float64()
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// DeriveSeed derives an independent child seed from a base seed and a
// tuple of identifiers (e.g. a k-means run's (k, restart) pair) by
// folding each identifier through a splitmix64 step. It is a pure
// function of its arguments, so work items seeded this way reproduce
// bit-identically no matter how many workers execute them, or in what
// order.
func DeriveSeed(base uint64, ids ...uint64) uint64 {
	s := NewRNG(base).Uint64()
	for _, id := range ids {
		s = NewRNG(s ^ id*0x9e3779b97f4a7c15).Uint64()
	}
	return s
}

// Projection is a dense random linear projection from dim inputs to k
// outputs, used to reduce basic-block vectors to the 15 dimensions SimPoint
// clusters on (and to 3 dimensions for the Figure 5/6 visualizations).
type Projection struct {
	in, out int
	m       []float64 // row-major: out rows of in columns
}

// NewProjection builds a projection matrix with entries drawn uniformly
// from [-1, 1), matching SimPoint's random linear projection.
func NewProjection(in, out int, seed uint64) *Projection {
	r := NewRNG(seed)
	m := make([]float64, in*out)
	for i := range m {
		m[i] = 2*r.Float64() - 1
	}
	return &Projection{in: in, out: out, m: m}
}

// Out reports the output dimensionality.
func (p *Projection) Out() int { return p.out }

// Apply projects v (length In) into a new vector of length Out.
func (p *Projection) Apply(v []float64) []float64 {
	if len(v) != p.in {
		panic("stats: projection dimension mismatch")
	}
	out := make([]float64, p.out)
	for o := 0; o < p.out; o++ {
		row := p.m[o*p.in : (o+1)*p.in]
		var s float64
		for i, x := range v {
			if x != 0 {
				s += row[i] * x
			}
		}
		out[o] = s
	}
	return out
}

// ApplySparse32Into projects a sparse vector, given as parallel
// index/value slices with the BBV storage's int32 indices, into a
// caller-provided destination of length Out. It avoids a dense
// intermediate for large BBVs and allocates nothing. dst is overwritten,
// not accumulated into.
func (p *Projection) ApplySparse32Into(dst []float64, idx []int32, val []float64) {
	if len(dst) != p.out {
		panic("stats: projection destination length mismatch")
	}
	for o := 0; o < p.out; o++ {
		row := p.m[o*p.in : (o+1)*p.in]
		var s float64
		for j, i := range idx {
			s += row[i] * val[j]
		}
		dst[o] = s
	}
}
