package experiments

import (
	"bytes"
	"context"
	"flag"
	"os"
	"runtime"
	"strings"
	"testing"
)

// update rewrites the golden file instead of diffing against it:
//
//	go test ./internal/experiments -run TestGoldenTables -update
var update = flag.Bool("update", false, "rewrite results/spexp_all.txt from freshly regenerated tables")

// goldenPath is the checked-in `spexp -fig all` stdout, the pinned numbers
// of the paper reproduction.
const goldenPath = "../../results/spexp_all.txt"

// TestGoldenTables regenerates every figure table and diffs it against the
// golden file, so refactors can't silently change the paper's numbers.
// Wall-clock cells of the §5.1 analysis-cost table are masked on both
// sides (see MaskNondeterminism); everything else must match byte for
// byte, at whatever parallelism GOMAXPROCS provides.
func TestGoldenTables(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerating all figures takes minutes; skipped in -short")
	}
	if raceEnabled {
		t.Skip("too slow under -race; the concurrency tests cover the engine")
	}
	var buf bytes.Buffer
	if err := NewSuite(runtime.GOMAXPROCS(0)).RenderAll(context.Background(), &buf); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d bytes to %s", buf.Len(), goldenPath)
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	diffTables(t, MaskNondeterminism(string(want)), MaskNondeterminism(buf.String()))
}

// diffTables reports the first few differing lines with their table
// context instead of dumping two multi-hundred-line blobs.
func diffTables(t *testing.T, want, got string) {
	t.Helper()
	if want == got {
		return
	}
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	section := "(preamble)"
	reported := 0
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if strings.HasPrefix(w, "== ") {
			section = w
		}
		if w != g {
			t.Errorf("golden mismatch in %s\n  line %d golden: %q\n  line %d got:    %q", section, i+1, w, i+1, g)
			if reported++; reported >= 5 {
				t.Errorf("(further differences suppressed; run with -update to accept the new tables)")
				return
			}
		}
	}
}
