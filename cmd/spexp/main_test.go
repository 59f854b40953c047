package main

import (
	"strings"
	"testing"

	"phasemark/internal/experiments"
)

func TestParseFigsAcceptsKnownNamesAndAlias(t *testing.T) {
	want, err := parseFigs("7, 6,crossbinary")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"7", "5", "crossbinary"} {
		if !want[name] {
			t.Errorf("%q not selected: %v", name, want)
		}
	}
	if want["6"] {
		t.Error("figure 6 must alias to 5, not appear itself")
	}
}

func TestParseFigsRejectsUnknownNames(t *testing.T) {
	_, err := parseFigs("7,bogus,13")
	if err == nil {
		t.Fatal("expected an error for unknown figure names")
	}
	for _, frag := range []string{`"bogus"`, `"13"`, "known:"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("error %q missing %q", err, frag)
		}
	}
	// A single typo is also fatal — no silent partial run.
	if _, err := parseFigs("al"); err == nil {
		t.Error("expected an error for \"al\"")
	}
}

func TestSetPlacementModesMirrorsFigConventions(t *testing.T) {
	s := experiments.NewSuite(1)
	if err := s.SetPlacementModes(" limit , cross"); err != nil {
		t.Fatal(err)
	}
	if err := s.SetPlacementModes(""); err != nil {
		t.Fatal(err)
	}
	err := s.SetPlacementModes("limit,bogus")
	if err == nil {
		t.Fatal("expected an error for unknown placement modes")
	}
	for _, frag := range []string{`"bogus"`, "known:", "cross", "limit"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("error %q missing %q", err, frag)
		}
	}
}
