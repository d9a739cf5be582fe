package main

import (
	"strings"
	"testing"
)

func TestRunSingleFigure(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, "7a", false); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "Figure 7a") || !strings.Contains(out, "Figure 7b") {
		t.Errorf("expected the 7a/7b pair, got:\n%s", out)
	}
	if !strings.Contains(out, "OPQ-Extended") {
		t.Error("heterogeneous figures must include OPQ-Extended")
	}
}

func TestRunCSV(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, "7x", true); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "dist,Greedy,OPQ-Extended,Baseline") {
		t.Errorf("CSV header missing:\n%s", out)
	}
}

func TestRunUnknownFigure(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, "99z", false); err == nil {
		t.Error("unknown figure accepted")
	}
}
