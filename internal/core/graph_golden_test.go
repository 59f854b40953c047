package core

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"phasemark/internal/workloads"
)

var updateGraphs = flag.Bool("update", false, "rewrite testdata/graphs.golden from freshly profiled graphs")

const graphsGolden = "testdata/graphs.golden"

// dumpGraph renders everything downstream analyses can observe of a
// profiled graph, in creation order: the node list with each node's In and
// Out edge order (EstimateDepths walks Out in order), the edge list with
// key, endpoints and traversal count, and every Welford statistic as exact
// float bits, so a reordered Add shows up even where it would round away
// in decimal.
func dumpGraph(g *Graph) string {
	var b strings.Builder
	edgeIdx := make(map[*Edge]int, len(g.Edges))
	for i, e := range g.Edges {
		edgeIdx[e] = i
	}
	nodeIdx := make(map[*Node]int, len(g.Nodes))
	for i, n := range g.Nodes {
		nodeIdx[n] = i
	}
	list := func(es []*Edge) string {
		ids := make([]string, len(es))
		for i, e := range es {
			ids[i] = strconv.Itoa(edgeIdx[e])
		}
		return "[" + strings.Join(ids, " ") + "]"
	}
	bits := func(x float64) string { return strconv.FormatFloat(x, 'x', -1, 64) }
	for i, n := range g.Nodes {
		fmt.Fprintf(&b, "node %d %v#%d in %s out %s\n", i, n.Key.Kind, n.Key.ID, list(n.In), list(n.Out))
	}
	for i, e := range g.Edges {
		h := &e.Hier
		fmt.Fprintf(&b, "edge %d %v from %d to %d n %d sum %s mean %s min %s max %s var %s\n",
			i, e.Key, nodeIdx[e.From], nodeIdx[e.To], h.N(),
			bits(h.Sum()), bits(h.Mean()), bits(h.Min()), bits(h.Max()), bits(h.Variance()))
	}
	return b.String()
}

// TestProfileGraphGolden pins the profiler's output on every workload's
// train input against graphs built by the map-keyed profiler that
// predates dense edge ids: same nodes and edges in the same creation
// order, same In/Out order, and bit-identical statistics. Regenerate with
// -update only for a change that is meant to alter the graph.
//
// The bits are amd64's. Go may fuse Welford's multiply-add into one
// rounding on arm64, ppc64le and s390x, where the variance bits can
// legitimately differ.
func TestProfileGraphGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden float bits were generated on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	var got bytes.Buffer
	for _, w := range workloads.All() {
		g := mustProfile(t, w.MustCompile(false), w.Train...)
		fmt.Fprintf(&got, "== %s\n%s", w.Name, dumpGraph(g))
	}
	if *updateGraphs {
		if err := os.WriteFile(graphsGolden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(graphsGolden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if d := lineDiff(got.String(), string(want)); d != "" {
		t.Fatal(d)
	}
}

// lineDiff reports the first line where two graph dumps differ, under
// the last "== <workload>" header above it, or "" if they are equal.
func lineDiff(got, want string) string {
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	section := ""
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if strings.HasPrefix(wl[i], "== ") {
			section = wl[i][3:] + ", "
		}
		if gl[i] != wl[i] {
			return fmt.Sprintf("%sline %d:\n got %s\nwant %s", section, i+1, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		return fmt.Sprintf("graph dump has %d lines, want %d", len(gl), len(wl))
	}
	return ""
}
