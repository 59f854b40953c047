package uarch

import "phasemark/internal/minivm"

// Config parameterizes the CPI model: a two-level data-cache hierarchy
// with additive miss penalties and a branch mispredict penalty on top of a
// base throughput of one instruction per cycle.
type Config struct {
	L1            CacheConfig
	L2            CacheConfig
	L1MissCycles  uint64 // added per L1 miss (L2 hit latency)
	L2MissCycles  uint64 // added per L2 miss (memory latency)
	BranchPenalty uint64 // added per mispredicted conditional branch
}

// DefaultConfig is the baseline machine used for all CPI measurements:
// 32KB direct-mapped DL1 (the smallest configuration of the paper's
// adaptive cache), a 512KB 8-way L2, and conventional penalties.
func DefaultConfig() Config {
	return Config{
		L1:            CacheConfig{BlockBytes: 64, Sets: 512, Ways: 1},
		L2:            CacheConfig{BlockBytes: 64, Sets: 1024, Ways: 8},
		L1MissCycles:  12,
		L2MissCycles:  150,
		BranchPenalty: 8,
	}
}

// Counters is a snapshot of the model's activity, subtractable to obtain
// per-interval metrics.
type Counters struct {
	Instrs   uint64
	Cycles   uint64
	L1Acc    uint64
	L1Miss   uint64
	L2Acc    uint64
	L2Miss   uint64
	Branches uint64
	Mispred  uint64
}

// Add returns the elementwise sum c + other (for accumulating totals
// across independent executions, e.g. the programs of a benchmark pass).
func (c Counters) Add(other Counters) Counters {
	return Counters{
		Instrs:   c.Instrs + other.Instrs,
		Cycles:   c.Cycles + other.Cycles,
		L1Acc:    c.L1Acc + other.L1Acc,
		L1Miss:   c.L1Miss + other.L1Miss,
		L2Acc:    c.L2Acc + other.L2Acc,
		L2Miss:   c.L2Miss + other.L2Miss,
		Branches: c.Branches + other.Branches,
		Mispred:  c.Mispred + other.Mispred,
	}
}

// Sub returns the delta c - prev.
func (c Counters) Sub(prev Counters) Counters {
	return Counters{
		Instrs:   c.Instrs - prev.Instrs,
		Cycles:   c.Cycles - prev.Cycles,
		L1Acc:    c.L1Acc - prev.L1Acc,
		L1Miss:   c.L1Miss - prev.L1Miss,
		L2Acc:    c.L2Acc - prev.L2Acc,
		L2Miss:   c.L2Miss - prev.L2Miss,
		Branches: c.Branches - prev.Branches,
		Mispred:  c.Mispred - prev.Mispred,
	}
}

// CPI reports cycles per instruction (0 when no instructions ran).
func (c Counters) CPI() float64 {
	if c.Instrs == 0 {
		return 0
	}
	return float64(c.Cycles) / float64(c.Instrs)
}

// L1MissRate reports the data-cache miss rate.
func (c Counters) L1MissRate() float64 {
	if c.L1Acc == 0 {
		return 0
	}
	return float64(c.L1Miss) / float64(c.L1Acc)
}

// CPU is the timing model. It consumes the machine's block, branch and
// memory events through the methods named after the minivm.Observer
// callbacks; a composite observer (trace's analysis stack) calls them in
// its interval order.
type CPU struct {
	cfg Config
	L1  *Cache
	L2  *Cache
	BP  *Predictor
	ctr Counters
}

// NewCPU builds the model for a program (the predictor is sized to its
// static block count).
func NewCPU(cfg Config, prog *minivm.Program) *CPU {
	return &CPU{
		cfg: cfg,
		L1:  NewCache(cfg.L1),
		L2:  NewCache(cfg.L2),
		BP:  NewPredictor(prog.NumBlocks),
	}
}

// Counters snapshots the current totals.
func (c *CPU) Counters() Counters { return c.ctr }

// OnBlock charges b's instructions at the base rate of one per cycle.
func (c *CPU) OnBlock(b *minivm.Block) {
	w := uint64(b.Weight())
	c.ctr.Instrs += w
	c.ctr.Cycles += w
}

// OnBranch predicts the conditional branch ending b and charges the
// penalty on a misprediction.
func (c *CPU) OnBranch(b *minivm.Block, taken bool) {
	c.ctr.Branches++
	if !c.BP.Predict(b.ID, taken) {
		c.ctr.Mispred++
		c.ctr.Cycles += c.cfg.BranchPenalty
	}
}

// OnMem runs a data reference through the cache hierarchy and charges
// its misses.
func (c *CPU) OnMem(addr uint64, write bool) {
	c.ctr.L1Acc++
	if c.L1.Access(addr) {
		return
	}
	c.ctr.L1Miss++
	c.ctr.Cycles += c.cfg.L1MissCycles
	c.ctr.L2Acc++
	if !c.L2.Access(addr) {
		c.ctr.L2Miss++
		c.ctr.Cycles += c.cfg.L2MissCycles
	}
}
