package compile_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"phasemark/internal/compile"
	"phasemark/internal/minivm"
	"phasemark/internal/workloads"
)

var updateCodegen = flag.Bool("update", false, "rewrite testdata/codegen.golden from freshly compiled programs")

const codegenGolden = "testdata/codegen.golden"

// TestCodegenGolden pins the compiler's output bit for bit: one line per
// workload and option set, holding the SHA-256 of the program's clasm
// text (minivm.Print), which covers every instruction, terminator, block
// position and procedure header. Marker mapping, the profiled graphs and
// the golden tables all rest on these programs, so a refactor of the
// compiler must leave the file untouched. Regenerate with -update only
// for a change that is meant to alter the generated code.
func TestCodegenGolden(t *testing.T) {
	var got strings.Builder
	for _, w := range workloads.All() {
		for bits := 0; bits < 8; bits++ {
			o := compile.Options{Optimize: bits&1 != 0, Inline: bits&2 != 0, Stack: bits&4 != 0}
			p, err := compile.CompileSource(w.Source, o)
			if err != nil {
				t.Fatalf("%s %+v: %v", w.Name, o, err)
			}
			fmt.Fprintf(&got, "%s %+v %x\n", w.Name, o, sha256.Sum256([]byte(minivm.Print(p))))
		}
	}
	if *updateCodegen {
		if err := os.WriteFile(codegenGolden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(codegenGolden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Errorf("codegen changed:\n got %s\nwant %s", gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Fatalf("codegen dump has %d lines, golden %d", len(gl), len(wl))
	}
}
