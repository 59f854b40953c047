// Package experiments regenerates every table and figure of the paper's
// evaluation (Figures 3–12 plus the §6.2.1 cross-binary study) on the
// synthetic workload suite. Each figure has a FigN function returning a
// Table; cmd/spexp prints them and the repository benchmarks time them.
//
// All interval-size constants are the paper's scaled 1:100 (see DESIGN.md):
// the paper's 10M-instruction baseline becomes 100k here because the
// synthetic programs run ~100× fewer instructions than SPEC ref inputs.
//
// # Memoization re-entrancy contract
//
// Expensive artifacts (compiled programs, profiled graphs, marker sets,
// traces) come from internal/artifact, and the suite memoizes its
// clusterings through the same artifact.Do over store.Memo: the first
// caller computes, concurrent callers block on that flight and share its
// outcome, successful values are cached forever, and errors are never
// cached. No lock is held while a compute function runs, so a compute MAY
// ask for other keys — a trace asks for its marker set, which asks for
// its graph. A compute MUST NOT re-enter the key it is computing: that
// deadlocks, exactly like a recursive sync.Once.Do. Keep compute
// dependency chains acyclic in one direction — earlier pipeline stages
// never call later ones.
package experiments

import (
	"fmt"
	"io"
	"strings"
)

// Scaled interval-size constants (paper value / 100).
const (
	ILower     = 100_000   // §5.4 marker minimum average interval (paper 10M)
	FixedLen   = 100_000   // BBV baseline fixed interval (paper 10M)
	LimitMin   = 100_000   // §5.2 limit variant minimum (paper 10M)
	LimitMax   = 2_000_000 // §5.2 limit variant maximum (paper 200M)
	TinyFixed  = 1_000     // whole-program CoV small intervals (paper 100k)
	SPFixed1   = 10_000    // "SP_1M" scaled (paper 1M)
	SPFixed10  = 100_000   // "SP_10M" scaled (paper 10M)
	SPFixed100 = 1_000_000 // "SP_100M" scaled (paper 100M)
)

// Table is a printable experiment result.
type Table struct {
	Title string
	Note  string
	Cols  []string
	Rows  [][]string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render writes the table in aligned plain text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	if t.Note != "" {
		fmt.Fprintf(w, "%s\n", t.Note)
	}
	widths := make([]int, len(t.Cols))
	for i, c := range t.Cols {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		var sb strings.Builder
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			pad := 0
			if i < len(widths) {
				pad = widths[i] - len(c)
			}
			if i == 0 {
				sb.WriteString(c + strings.Repeat(" ", pad))
			} else {
				sb.WriteString(strings.Repeat(" ", pad) + c)
			}
		}
		fmt.Fprintln(w, sb.String())
	}
	line(t.Cols)
	sep := make([]string, len(t.Cols))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	fmt.Fprintln(w)
}

// String renders to a string.
func (t *Table) String() string {
	var sb strings.Builder
	t.Render(&sb)
	return sb.String()
}

func f1(x float64) string { return fmt.Sprintf("%.1f", x) }
func f2(x float64) string { return fmt.Sprintf("%.2f", x) }
func f3(x float64) string { return fmt.Sprintf("%.3f", x) }

func pct(x float64) string { return fmt.Sprintf("%.2f%%", 100*x) }

func millions(x float64) string { return fmt.Sprintf("%.2fM", x/1e6) }

func itoa(x int) string { return fmt.Sprintf("%d", x) }

func sprintf(format string, args ...any) string { return fmt.Sprintf(format, args...) }
