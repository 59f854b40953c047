package adapt

import (
	"errors"
	"testing"

	"phasemark/internal/compile"
	"phasemark/internal/core"
	"phasemark/internal/minivm"
	"phasemark/internal/stats"
	"phasemark/internal/uarch"
)

// multiScaleSrc has a large-working-set phase (only the 256KB config holds
// it across sweeps) and a small one (any config works).
const multiScaleSrc = `
array big[32768];
array tiny[1024];
proc bigSweep(sweeps) {
	var s = 0;
	for (var w = 0; w < sweeps; w = w + 1) {
		for (var i = 0; i < 32768; i = i + 1) { s = s + big[i]; }
	}
	return s;
}
proc tinySweep(sweeps) {
	var s = 0;
	for (var w = 0; w < sweeps; w = w + 1) {
		for (var i = 0; i < 1024; i = i + 1) { s = s + tiny[i]; }
	}
	return s;
}
proc main(reps) {
	var s = 0;
	for (var r = 0; r < reps; r = r + 1) {
		s = s + bigSweep(3) + tinySweep(60);
	}
	out(s);
	return s;
}
`

func setup(t *testing.T) (*RunResult, *core.MarkerSet) {
	t.Helper()
	prog, err := compile.CompileSource(multiScaleSrc, compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	g, err := core.ProfileRun(prog, 6)
	if err != nil {
		t.Fatal(err)
	}
	set := core.SelectMarkers(g, core.SelectOptions{ILower: 100_000})
	if len(set.Markers) == 0 {
		t.Fatal("no markers")
	}
	res, err := Run(prog, []int64{6}, Source{SPM: set})
	if err != nil {
		t.Fatal(err)
	}
	return res, set
}

func TestMissMonotoneAcrossConfigs(t *testing.T) {
	res, _ := setup(t)
	// LRU inclusion: within every interval, more ways never means more
	// misses.
	for _, iv := range res.Intervals {
		for c := 1; c < NumConfigs; c++ {
			if iv.Misses[c] > iv.Misses[c-1] {
				t.Fatalf("interval misses not monotone: %v", iv.Misses)
			}
		}
	}
}

func TestIntervalsCoverRun(t *testing.T) {
	res, _ := setup(t)
	var ins uint64
	for _, iv := range res.Intervals {
		ins += iv.Instrs
	}
	if ins != res.TotalInstrs {
		t.Fatalf("intervals cover %d of %d", ins, res.TotalInstrs)
	}
}

func TestAdaptivePolicyShrinksWithoutMissIncrease(t *testing.T) {
	res, _ := setup(t)
	pol := Evaluate(res, nil)
	if pol.AvgCacheKB >= 256 {
		t.Fatalf("adaptive policy never shrank: %.1f KB", pol.AvgCacheKB)
	}
	if pol.MissRate > pol.BaseRate*1.0001 {
		t.Fatalf("policy increased misses: %v vs %v", pol.MissRate, pol.BaseRate)
	}
	if pol.Phases < 2 {
		t.Fatalf("phases = %d", pol.Phases)
	}
}

func TestBestFixedIsLargestOnlyWhenNeeded(t *testing.T) {
	res, _ := setup(t)
	bf := BestFixed(res)
	// bigSweep re-sweeps 256KB: only the full cache avoids capacity misses,
	// so best fixed must be 256KB here.
	if bf.AvgCacheKB != 256 {
		t.Fatalf("best fixed = %v KB, want 256", bf.AvgCacheKB)
	}
	// And the adaptive policy must beat it on average size.
	pol := Evaluate(res, nil)
	if pol.AvgCacheKB >= bf.AvgCacheKB {
		t.Fatalf("adaptive %.1f KB not below best fixed %.1f KB",
			pol.AvgCacheKB, bf.AvgCacheKB)
	}
}

func TestFixedSourceCollectsBBVs(t *testing.T) {
	prog, err := compile.CompileSource(multiScaleSrc, compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(prog, []int64{3}, Source{FixedLen: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.BBVs) != len(res.Intervals) {
		t.Fatalf("BBVs %d vs intervals %d", len(res.BBVs), len(res.Intervals))
	}
	for i, v := range res.BBVs {
		if v.L1() == 0 {
			t.Fatalf("empty BBV at %d", i)
		}
	}
}

func TestPhaseOverride(t *testing.T) {
	res, _ := setup(t)
	// Forcing everything into one phase must explore once and lock one
	// config for the rest.
	pol := Evaluate(res, func(i int) int { return 0 })
	if pol.Phases != 1 {
		t.Fatalf("phases = %d", pol.Phases)
	}
}

func TestChooseConfigPicksSmallestEquivalent(t *testing.T) {
	var m [NumConfigs]uint64
	for i := range m {
		m[i] = 100
	}
	if c := chooseConfig(m); c != 0 {
		t.Fatalf("all-equal misses chose %d, want 0", c)
	}
	m = [NumConfigs]uint64{900, 500, 300, 200, 200, 200, 200, 200}
	if c := chooseConfig(m); c != 3 {
		t.Fatalf("chose %d, want 3 (first equal to the largest)", c)
	}
}

func TestSizeKB(t *testing.T) {
	if SizeKB(0) != 32 || SizeKB(7) != 256 {
		t.Fatalf("sizes: %d..%d", SizeKB(0), SizeKB(7))
	}
}

func TestEmptySourceErrors(t *testing.T) {
	prog, err := compile.CompileSource(multiScaleSrc, compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(prog, []int64{1}, Source{}); err == nil {
		t.Fatal("empty source accepted")
	}
}

// The one NumConfigs-way cache must count, for every configuration, the
// misses of a separate cache with that many ways over BaseConfig's sets:
// streams range from a footprint of a few sets (every configuration
// holds it) to far beyond the 256 KB of the largest.
func TestMultiCacheMatchesEightCaches(t *testing.T) {
	const accesses = 100_000
	for _, blocks := range []int{4, 600, 2048, 4096, 6000, 40_000, 1 << 20} {
		for seed := uint64(1); seed <= 3; seed++ {
			rng := stats.NewRNG(seed*0x9e37 + uint64(blocks))
			mc := newMultiCache()
			var ref [NumConfigs]*uarch.Cache
			for i := range ref {
				cfg := BaseConfig
				cfg.Ways = i + 1
				ref[i] = uarch.NewCache(cfg)
			}
			var want [NumConfigs]uint64
			for n := 0; n < accesses; n++ {
				// Mostly uniform over the footprint, with runs of
				// consecutive words that hit the last-block shortcut.
				addr := uint64(rng.Intn(blocks))*uint64(BaseConfig.BlockBytes) + uint64(rng.Intn(8))*8
				for k := rng.Intn(3); k >= 0; k-- {
					mc.access(addr)
					for i, c := range ref {
						if !c.Access(addr) {
							want[i]++
						}
					}
				}
			}
			if mc.misses != want {
				t.Fatalf("%d blocks, seed %d: one cache counted %v misses, eight caches %v",
					blocks, seed, mc.misses, want)
			}
		}
	}
}

// An invalid program is an error wrapping minivm.ErrInvalidProgram for
// every source, never a panic while the BBV accumulator or the detector
// is sized from NumBlocks.
func TestAdaptRejectsInvalidProgram(t *testing.T) {
	prog, err := compile.CompileSource(multiScaleSrc, compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bad := *prog
	bad.NumBlocks = -1
	for _, src := range []Source{{FixedLen: 100_000}, {SPM: &core.MarkerSet{}}} {
		if _, err := Run(&bad, []int64{1}, src); !errors.Is(err, minivm.ErrInvalidProgram) {
			t.Errorf("source %+v: err = %v, want ErrInvalidProgram", src, err)
		}
	}
}
