package compile

import (
	"testing"

	"phasemark/internal/minivm"
	"phasemark/internal/stats"
)

// FuzzCompileDiff is the native-fuzzing face of the differential backend
// oracle: each fuzz input seeds the random program generator (progGen,
// shared with TestOptimizerEquivalenceFuzz), and every Options combination
// — either backend, with or without the optimizer and the inliner — must
// have regular loops (minivm.Loops.Check) and agree with the -O0 register
// build on return value and out() stream. `go test -fuzz FuzzCompileDiff`
// explores seeds the fixed trial loop never reaches.
func FuzzCompileDiff(f *testing.F) {
	for _, s := range []uint64{0, 1, 7, 42, 1 << 20, 0xdeadbeef} {
		f.Add(s, int64(3))
	}
	f.Fuzz(func(t *testing.T, seed uint64, arg int64) {
		g := &progGen{r: stats.NewRNG(seed*2654435761 + 1)}
		src := g.generate()

		opts := allOptions()
		progs := make([]*minivm.Program, len(opts))
		for i, o := range opts {
			p, err := CompileSource(src, o)
			if err != nil {
				t.Fatalf("seed %d %+v: compile failed: %v\nsource:\n%s", seed, o, err, src)
			}
			if err := minivm.FindLoops(p).Check(); err != nil {
				t.Fatalf("seed %d %+v: %v\nsource:\n%s", seed, o, err, src)
			}
			progs[i] = p
		}

		run := func(p *minivm.Program) (int64, []int64, error) {
			m := minivm.NewMachine(p, nil)
			m.MaxInstrs = 5_000_000
			rv, err := m.Run(arg)
			return rv, m.Output(), err
		}
		rv0, out0, err0 := run(progs[0])
		for i, p := range progs[1:] {
			o := opts[i+1]
			rv, out, err := run(p)
			if (err0 == nil) != (err == nil) {
				t.Fatalf("seed %d arg %d %+v: error mismatch %v vs %v\nsource:\n%s",
					seed, arg, o, err0, err, src)
			}
			if err0 != nil {
				continue // both trapped (e.g. instruction budget); equivalence is moot
			}
			if rv != rv0 {
				t.Fatalf("seed %d arg %d %+v: return %d vs %d\nsource:\n%s",
					seed, arg, o, rv, rv0, src)
			}
			if len(out) != len(out0) {
				t.Fatalf("seed %d arg %d %+v: out lengths %d vs %d\nsource:\n%s",
					seed, arg, o, len(out), len(out0), src)
			}
			for j := range out {
				if out[j] != out0[j] {
					t.Fatalf("seed %d arg %d %+v: out[%d] %d vs %d\nsource:\n%s",
						seed, arg, o, j, out[j], out0[j], src)
				}
			}
		}
	})
}
