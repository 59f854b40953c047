// Package reuse implements the data-locality baseline the paper compares
// against (Shen, Zhong, Ding — "Locality phase prediction", §2.4/§6.1):
// exact LRU reuse (stack) distances computed with a Fenwick tree over
// access times, a windowed reuse-distance signal with multi-scale (Haar)
// smoothing, boundary detection on that signal, and selection of basic
// blocks whose executions correlate with the boundaries — the
// "reuse-distance software phase markers".
package reuse

// minTimes is the fewest access times a rebuilt tree holds, so a stream
// over a handful of blocks does not rebuild every few accesses.
const minTimes = 1 << 10

// Distances computes exact LRU stack distances over a stream of block
// addresses. Access returns the reuse distance (number of distinct blocks
// touched since the previous access to this block) and cold=true for first
// accesses.
//
// Each block's latest access time holds a 1 in a Fenwick tree, so a
// distance is the number of live times after the block's previous one.
// When the times run out, the live ones are renumbered in order into a
// tree twice their count (Bennett and Kruskal, 1975).
type Distances struct {
	last map[uint64]int32 // block -> its latest access time
	tree []int32          // Fenwick tree over times 1..len(tree)-1
	now  int32            // latest time handed out
	// blockBytes sets the granularity distances are measured at (cache
	// block granularity, matching the cache the phases will reconfigure).
	blockBytes uint64
}

// NewDistances builds a tracker at the given block granularity.
func NewDistances(blockBytes int) *Distances {
	return &Distances{
		last:       map[uint64]int32{},
		tree:       make([]int32, minTimes+1),
		blockBytes: uint64(blockBytes),
	}
}

// Access records a byte-address access and returns its reuse distance.
func (d *Distances) Access(addr uint64) (dist int, cold bool) {
	blk := addr / d.blockBytes
	if int(d.now) == len(d.tree)-1 {
		d.compact()
	}
	d.now++
	t, seen := d.last[blk]
	if seen {
		dist = len(d.last) - d.prefix(t)
		d.add(t, -1)
	} else {
		cold = true
	}
	d.add(d.now, 1)
	d.last[blk] = d.now
	return dist, cold
}

// Distinct reports the number of distinct blocks seen so far.
func (d *Distances) Distinct() int { return len(d.last) }

// prefix counts the live times in 1..t.
func (d *Distances) prefix(t int32) int {
	n := int32(0)
	for ; t > 0; t &= t - 1 {
		n += d.tree[t]
	}
	return int(n)
}

func (d *Distances) add(t, v int32) {
	for ; int(t) < len(d.tree); t += t & -t {
		d.tree[t] += v
	}
}

// compact renumbers the live times 1..n in their order and rebuilds the
// tree with room for as many new accesses.
func (d *Distances) compact() {
	rank := make([]int32, d.now+1)
	for _, t := range d.last {
		rank[t] = 1
	}
	n := int32(0)
	for t, live := range rank {
		if live != 0 {
			n++
			rank[t] = n
		}
	}
	for blk, t := range d.last {
		d.last[blk] = rank[t]
	}
	d.now = n
	d.tree = make([]int32, max(2*n, minTimes)+1)
	// Node t covers times (t - t&-t, t], of which 1..n are live.
	for t := int32(1); int(t) < len(d.tree); t++ {
		d.tree[t] = max(0, min(t, n)-(t-t&-t))
	}
}
