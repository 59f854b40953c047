package core

import (
	"testing"

	"phasemark/internal/minivm"
)

func TestPredictorPeriodicSequence(t *testing.T) {
	// A strictly periodic phase sequence is perfectly predictable after
	// one period with order 1.
	var trace []int
	for i := 0; i < 50; i++ {
		trace = append(trace, 0, 1, 2)
	}
	acc := EvaluatePrediction(trace, 1)
	if acc < 0.95 {
		t.Fatalf("periodic accuracy = %v", acc)
	}
}

func TestPredictorOrderTwoDisambiguates(t *testing.T) {
	// Sequence ABAC ABAC...: after A comes B or C depending on context;
	// order 1 can do at best ~50% on A-successors, order 2 nails it.
	var trace []int
	for i := 0; i < 60; i++ {
		trace = append(trace, 0, 1, 0, 2)
	}
	acc1 := EvaluatePrediction(trace, 1)
	acc2 := EvaluatePrediction(trace, 2)
	if acc2 < 0.95 {
		t.Fatalf("order-2 accuracy = %v", acc2)
	}
	if acc2 <= acc1 {
		t.Fatalf("order-2 (%v) should beat order-1 (%v) on ABAC", acc2, acc1)
	}
}

func TestPredictorColdStart(t *testing.T) {
	p := NewPredictor(1)
	if p.Predict() != -1 {
		t.Fatal("prediction before history")
	}
	p.Observe(5)
	if p.Predictions() != 0 {
		t.Fatal("first observation must not be scored")
	}
	if p.Predict() != 5 {
		t.Fatal("fallback must predict last marker")
	}
}

func TestPredictionOnRealMarkerTrace(t *testing.T) {
	// Markers on a phased program yield a near-periodic firing sequence;
	// the predictor should know the next phase most of the time.
	prog := mustCompile(t, phasedProgram, false)
	g := mustProfile(t, prog, 10, 400)
	set := SelectMarkers(g, SelectOptions{ILower: 1000})
	var trace []int
	det, err := NewDetector(prog, nil, set, func(marker int, at uint64) {
		trace = append(trace, marker)
	})
	if err != nil {
		t.Fatal(err)
	}
	m := minivm.NewMachine(prog, det)
	if _, err := m.Run(30, 400); err != nil {
		t.Fatal(err)
	}
	if len(trace) < 20 {
		t.Fatalf("trace too short: %d", len(trace))
	}
	if acc := EvaluatePrediction(trace, 2); acc < 0.8 {
		t.Fatalf("real-trace prediction accuracy = %v", acc)
	}
}
