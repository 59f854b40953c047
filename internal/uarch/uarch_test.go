package uarch

import (
	"testing"
	"testing/quick"

	"phasemark/internal/minivm"
	"phasemark/internal/stats"
)

func TestCacheDirectMappedConflicts(t *testing.T) {
	c := NewCache(CacheConfig{BlockBytes: 64, Sets: 4, Ways: 1})
	// Two addresses mapping to the same set alternate: always miss.
	a, b := uint64(0), uint64(4*64) // same set, different tags
	var accesses, misses int
	for i := 0; i < 10; i++ {
		for _, addr := range []uint64{a, b} {
			accesses++
			if !c.Access(addr) {
				misses++
			}
		}
		if misses != accesses {
			t.Fatal("conflicting accesses must all miss in direct-mapped cache")
		}
	}
	if misses != 20 || accesses != 20 {
		t.Fatalf("misses=%d accesses=%d", misses, accesses)
	}
}

func TestCacheAssociativityResolvesConflicts(t *testing.T) {
	c := NewCache(CacheConfig{BlockBytes: 64, Sets: 4, Ways: 2})
	a, b := uint64(0), uint64(4*64)
	misses := 0
	for _, addr := range []uint64{a, b} {
		if !c.Access(addr) {
			misses++
		}
	}
	for i := 0; i < 10; i++ {
		if !c.Access(a) || !c.Access(b) {
			t.Fatal("2-way cache must hold both conflicting blocks")
		}
	}
	if misses != 2 {
		t.Fatalf("misses=%d, want 2 cold", misses)
	}
}

func TestCacheLRUOrder(t *testing.T) {
	c := NewCache(CacheConfig{BlockBytes: 64, Sets: 1, Ways: 2})
	blk := func(i uint64) uint64 { return i * 64 }
	c.Access(blk(1))
	c.Access(blk(2))
	if d := c.Depth(blk(1)); d != 1 { // 1 is now MRU
		t.Errorf("block 1 found at depth %d, want 1", d)
	}
	if d := c.Depth(blk(3)); d != 2 { // evicts 2 (LRU)
		t.Errorf("cold block 3 returned depth %d, want Ways = 2", d)
	}
	if d := c.Depth(blk(1)); d != 1 {
		t.Errorf("block 1 must survive (was MRU), depth %d", d)
	}
	if d := c.Depth(blk(1)); d != 0 {
		t.Errorf("repeated block 1 at depth %d, want 0", d)
	}
	if c.Access(blk(2)) {
		t.Error("block 2 must have been evicted")
	}
}

func TestCacheSpatialLocality(t *testing.T) {
	c := NewCache(CacheConfig{BlockBytes: 64, Sets: 16, Ways: 1})
	// 8 words per 64B block: one miss then 7 hits.
	for w := uint64(0); w < 8; w++ {
		hit := c.Access(w * 8)
		if w == 0 && hit {
			t.Error("first word must miss")
		}
		if w > 0 && !hit {
			t.Errorf("word %d must hit in the same block", w)
		}
	}
}

// Property: a larger cache (more ways) never has more misses on any trace
// — LRU inclusion.
func TestLRUInclusionProperty(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		rng := stats.NewRNG(seed)
		small := NewCache(CacheConfig{BlockBytes: 64, Sets: 8, Ways: 2})
		big := NewCache(CacheConfig{BlockBytes: 64, Sets: 8, Ways: 4})
		var smallMiss, bigMiss int
		for i := 0; i < int(n)%2000+100; i++ {
			addr := uint64(rng.Intn(4096)) * 8
			if !small.Access(addr) {
				smallMiss++
			}
			if !big.Access(addr) {
				bigMiss++
			}
		}
		return bigMiss <= smallMiss
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPredictorLearnsBias(t *testing.T) {
	p := NewPredictor(4)
	// Strongly taken branch: after warmup, all predictions correct.
	queries, wrong := 0, 0
	predict := func() {
		queries++
		if !p.Predict(1, true) {
			wrong++
		}
	}
	for i := 0; i < 10; i++ {
		predict()
	}
	before := wrong
	for i := 0; i < 100; i++ {
		predict()
	}
	if wrong != before {
		t.Error("saturated predictor must not mispredict a constant branch")
	}
	if queries != 110 {
		t.Errorf("queries = %d", queries)
	}
}

func TestPredictorAlternatingWorstCase(t *testing.T) {
	p := NewPredictor(1)
	wrong := 0
	for i := 0; i < 100; i++ {
		if !p.Predict(0, i%2 == 0) {
			wrong++
		}
	}
	if wrong < 40 {
		t.Errorf("alternating branch should confuse a 2-bit counter, wrong=%d", wrong)
	}
}

func TestCPUCountersAndCPI(t *testing.T) {
	cfg := Config{
		L1:            CacheConfig{BlockBytes: 64, Sets: 4, Ways: 1},
		L2:            CacheConfig{BlockBytes: 64, Sets: 16, Ways: 2},
		L1MissCycles:  10,
		L2MissCycles:  100,
		BranchPenalty: 5,
	}
	prog := progForCPU(t)
	c := NewCPU(cfg, prog)
	// Simulate raw events without the machine.
	b := prog.Procs[0].Blocks[0]
	c.OnBlock(b)
	base := c.Counters()
	if base.Cycles != base.Instrs || base.Instrs != uint64(b.Weight()) {
		t.Fatalf("base CPI must be 1: %+v", base)
	}
	c.OnMem(0, false) // cold: L1 miss + L2 miss
	d := c.Counters().Sub(base)
	if d.Cycles != 110 || d.L1Miss != 1 || d.L2Miss != 1 {
		t.Fatalf("cold miss delta: %+v", d)
	}
	c.OnMem(0, false) // now hot
	d2 := c.Counters().Sub(base)
	if d2.L1Acc != 2 || d2.L1Miss != 1 {
		t.Fatalf("hot access delta: %+v", d2)
	}
	c.OnBranch(b, true) // weakly-not-taken predicts false -> mispredict
	d3 := c.Counters().Sub(base)
	if d3.Mispred != 1 || d3.Cycles != 110+5 {
		t.Fatalf("branch delta: %+v", d3)
	}
}

func TestCountersSubAndRates(t *testing.T) {
	a := Counters{Instrs: 100, Cycles: 150, L1Acc: 10, L1Miss: 5}
	b := Counters{Instrs: 300, Cycles: 600, L1Acc: 40, L1Miss: 10}
	d := b.Sub(a)
	if d.Instrs != 200 || d.Cycles != 450 {
		t.Fatalf("sub: %+v", d)
	}
	if d.CPI() != 2.25 {
		t.Errorf("CPI = %v", d.CPI())
	}
	if got := d.L1MissRate(); got != float64(5)/30 {
		t.Errorf("miss rate = %v", got)
	}
	var zero Counters
	if zero.CPI() != 0 || zero.L1MissRate() != 0 {
		t.Error("zero counters must not divide by zero")
	}
}

func TestBadConfigsPanic(t *testing.T) {
	for _, cfg := range []CacheConfig{
		{BlockBytes: 64, Sets: 3, Ways: 1},
		{BlockBytes: 60, Sets: 4, Ways: 1},
		{BlockBytes: 64, Sets: 4, Ways: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("no panic for %+v", cfg)
				}
			}()
			NewCache(cfg)
		}()
	}
}

func progForCPU(t *testing.T) *minivm.Program {
	t.Helper()
	main := &minivm.Proc{Name: "main", NumArgs: 0, NumRegs: 2}
	main.Blocks = []*minivm.Block{{
		Instr: []minivm.Instr{{Op: minivm.OpConst, A: 0, Imm: 1}},
		Term:  minivm.Term{Kind: minivm.TermRet, Ret: 0},
	}}
	p := &minivm.Program{Procs: []*minivm.Proc{main}}
	p.RenumberBlocks()
	return p
}
