// Package uarch provides the microarchitecture timing substrate the
// evaluation measures phases with: set-associative LRU caches, a two-bit
// branch predictor, and an additive-penalty CPI model. It stands in for
// the paper's simulated Alpha baseline: the analysis only needs
// per-interval CPI and data-cache hit/miss counts that vary with the code
// and data actually executed.
package uarch

import (
	"fmt"
	"math/bits"
)

// CacheConfig describes one set-associative cache.
type CacheConfig struct {
	BlockBytes int
	Sets       int
	Ways       int
}

// SizeBytes reports the total capacity.
func (c CacheConfig) SizeBytes() int { return c.BlockBytes * c.Sets * c.Ways }

// String renders e.g. "64KB (64B x 512 sets x 2-way)".
func (c CacheConfig) String() string {
	return fmt.Sprintf("%dKB (%dB x %d sets x %d-way)",
		c.SizeBytes()/1024, c.BlockBytes, c.Sets, c.Ways)
}

// Cache is a set-associative cache with true-LRU replacement. Write
// misses allocate (write-allocate, writes otherwise modeled like reads, as
// in the Cheetah-style simulators the paper's cache study uses).
//
// Tags live in one flat array, Ways entries per set in MRU-first order
// (resident count per set in size), so a lookup touches a single
// contiguous cache line of the host — no per-set slice headers or pointer
// chasing. The last accessed block is memoized: by construction it is the
// MRU line of its set, so a repeated access — the spatial-locality pattern
// that dominates real memory streams — is a hit decided by one compare,
// with no set scan and no reordering.
type Cache struct {
	ways       int
	blockShift uint   // log2(BlockBytes)
	setMask    uint64 // Sets - 1
	tagShift   uint   // log2(Sets)
	tags       []uint64
	size       []int32 // resident lines per set
	// last is the block number of the previous access; lastOK guards the
	// first access.
	last   uint64
	lastOK bool
}

// NewCache builds an empty cache. Sets must be a power of two.
func NewCache(cfg CacheConfig) *Cache {
	if cfg.Sets&(cfg.Sets-1) != 0 || cfg.Sets <= 0 {
		panic(fmt.Sprintf("uarch: sets must be a power of two, got %d", cfg.Sets))
	}
	if cfg.BlockBytes&(cfg.BlockBytes-1) != 0 || cfg.BlockBytes <= 0 {
		panic(fmt.Sprintf("uarch: block size must be a power of two, got %d", cfg.BlockBytes))
	}
	if cfg.Ways <= 0 {
		panic("uarch: ways must be positive")
	}
	return &Cache{
		ways:       cfg.Ways,
		blockShift: uint(bits.TrailingZeros(uint(cfg.BlockBytes))),
		setMask:    uint64(cfg.Sets - 1),
		tagShift:   uint(bits.TrailingZeros(uint(cfg.Sets))),
		tags:       make([]uint64, cfg.Sets*cfg.Ways),
		size:       make([]int32, cfg.Sets),
	}
}

// Access touches byte address addr; it returns true on a hit.
func (c *Cache) Access(addr uint64) bool { return c.Depth(addr) < c.ways }

// Depth touches byte address addr and returns the LRU depth its block was
// found at before the access (0 is the MRU line), or Ways on a miss. A
// miss allocates the block, evicting the set's LRU line if it is full.
// By LRU inclusion (Mattson et al., 1970) a cache with the same sets and
// w ways would have hit exactly when the depth is below w.
func (c *Cache) Depth(addr uint64) int {
	block := addr >> c.blockShift
	if c.lastOK && block == c.last {
		// The previous access made this block the MRU line of its set, so
		// this is a hit and the LRU order is already correct.
		return 0
	}
	c.last = block
	c.lastOK = true
	si := int(block & c.setMask)
	tag := block >> c.tagShift
	set := c.tags[si*c.ways : (si+1)*c.ways]
	n := int(c.size[si])
	for i, t := range set[:n] {
		if t == tag {
			// Move to MRU position.
			copy(set[1:i+1], set[:i])
			set[0] = tag
			return i
		}
	}
	if n < c.ways {
		c.size[si]++
		n++
	}
	// Shift the residents down (dropping the LRU line of a full set) and
	// insert at MRU.
	copy(set[1:n], set[:n-1])
	set[0] = tag
	return c.ways
}

// Predictor is a table of two-bit saturating counters indexed by the
// branch's static block ID.
type Predictor struct {
	table []uint8
}

// NewPredictor builds a predictor with one counter per static block.
func NewPredictor(numBlocks int) *Predictor {
	t := make([]uint8, numBlocks)
	for i := range t {
		t[i] = 1 // weakly not-taken
	}
	return &Predictor{table: t}
}

// Predict consumes the outcome of branch block id and reports whether the
// prediction was correct.
func (p *Predictor) Predict(id int, taken bool) bool {
	ctr := &p.table[id]
	pred := *ctr >= 2
	if taken && *ctr < 3 {
		*ctr++
	}
	if !taken && *ctr > 0 {
		*ctr--
	}
	return pred == taken
}
