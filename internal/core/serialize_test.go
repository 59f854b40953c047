package core

import (
	"encoding/json"
	"testing"

	"phasemark/internal/minivm"
)

// Marker sets are plain data so they can be saved next to a binary and
// applied in later runs (the CLI's -json mode); verify the JSON round trip
// preserves everything detection depends on.
func TestMarkerSetJSONRoundTrip(t *testing.T) {
	prog := mustCompile(t, phasedProgram, false)
	g := mustProfile(t, prog, 10, 400)
	set := SelectMarkers(g, SelectOptions{ILower: 1000, MaxLimit: 50_000})
	if len(set.Markers) == 0 {
		t.Fatal("no markers")
	}
	blob, err := json.Marshal(set)
	if err != nil {
		t.Fatal(err)
	}
	var back MarkerSet
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Markers) != len(set.Markers) {
		t.Fatalf("marker count %d != %d", len(back.Markers), len(set.Markers))
	}
	for i := range set.Markers {
		a, b := set.Markers[i], back.Markers[i]
		if a.Key != b.Key || a.GroupN != b.GroupN {
			t.Fatalf("marker %d changed: %+v vs %+v", i, a, b)
		}
	}
	if back.Opts != set.Opts {
		t.Fatalf("options changed: %+v vs %+v", back.Opts, set.Opts)
	}
	// The deserialized set must drive a detector identically.
	fire := func(s *MarkerSet) uint64 {
		det, err := NewDetector(prog, nil, s, nil)
		if err != nil {
			t.Fatal(err)
		}
		m := minivm.NewMachine(prog, det)
		if _, err := m.Run(10, 400); err != nil {
			t.Fatal(err)
		}
		return det.TotalFired()
	}
	if fire(set) != fire(&back) {
		t.Fatal("round-tripped set fires differently")
	}
}
