package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunFig3a(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, figOpts{fig: "3a", assignments: 20, seed: 1}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "Figure 3a") {
		t.Errorf("missing figure header:\n%s", out)
	}
	for _, tier := range []string{"cost=0.05", "cost=0.08", "cost=0.10"} {
		if !strings.Contains(out, tier) {
			t.Errorf("missing pay tier %s", tier)
		}
	}
	// The cheap tier must show overtime markers or dashes at the deep end.
	if !strings.Contains(out, "*") && !strings.Contains(out, "-") {
		t.Error("expected overtime markers in Fig 3a output")
	}
}

// figureIDs is every figure sladesim renders.
var figureIDs = []string{
	"3a", "3b", "3c", "6a", "6b", "6c", "6d", "6e", "6f", "6g", "6h", "6i", "6j", "6k", "6l",
	"7a", "7b", "7c", "7d", "7x", "7y", "8a", "8b",
}

func TestRunAll(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, figOpts{fig: "all", assignments: 5, seed: 2}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, id := range figureIDs {
		if !strings.Contains(out, "Figure "+id+" ") {
			t.Errorf("missing figure %s", id)
		}
	}
	if !strings.Contains(out, "Diff. 3") {
		t.Error("missing difficulty series in 3c")
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	var sb strings.Builder
	err := run(&sb, figOpts{fig: "3z", assignments: 10, seed: 1})
	if err == nil {
		t.Fatal("unknown figure accepted")
	}
	// The error must teach the valid values, not just reject.
	for _, want := range append([]string{"3z", "all"}, figureIDs...) {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("unknown-figure error should mention %q: %v", want, err)
		}
	}
	if err := run(&sb, figOpts{fig: "3a", assignments: 0, seed: 1}); err == nil {
		t.Error("zero assignments accepted")
	}
}

func TestRunSingleFigure(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, figOpts{fig: "7a", assignments: 10, seed: 1}); err != nil {
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
	if err := run(&sb, figOpts{fig: "7x", assignments: 10, seed: 1, csv: true}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "dist,Greedy,OPQ-Extended,Baseline") {
		t.Errorf("CSV header missing:\n%s", out)
	}
	// -csv applies to Figure 3 too.
	sb.Reset()
	if err := run(&sb, figOpts{fig: "3c", assignments: 5, seed: 1, csv: true}); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sb.String(), "# Figure 3c — ") || !strings.Contains(sb.String(), ",Diff. 3\n") {
		t.Errorf("Figure 3 CSV:\n%s", sb.String())
	}
}

func TestRunUnknownFigure(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, figOpts{fig: "99z", assignments: 10, seed: 1}); err == nil {
		t.Error("unknown figure accepted")
	}
}

// TestRunMatrixShortSmoke drives the -matrix -short path end to end: the
// reduced matrix runs through the real pipeline, the report lands on disk,
// every cell passes its reliability target, and the frontier table prints.
func TestRunMatrixShortSmoke(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_scenarios.json")
	var sb strings.Builder
	if err := runMatrix(&sb, matrixOpts{short: true, out: out, seed: 1, check: true}); err != nil {
		t.Fatalf("matrix run failed: %v\n%s", err, sb.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"schema_version"`, `"matrix": "short"`, `"reliability"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("report missing %s", want)
		}
	}
	if !strings.Contains(sb.String(), "Scenario frontier") {
		t.Errorf("frontier table missing:\n%s", sb.String())
	}
}

func TestRunMatrixFilterAndErrors(t *testing.T) {
	var sb strings.Builder
	err := runMatrix(&sb, matrixOpts{short: true, cells: "no-such-cell", out: "-", seed: 1})
	if err == nil || !strings.Contains(err.Error(), "no-such-cell") {
		t.Fatalf("empty filter must error with the filter string, got %v", err)
	}
	sb.Reset()
	if err := runMatrix(&sb, matrixOpts{short: true, cells: "uniform/heterogeneous", out: "-", seed: 1, check: true}); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(sb.String(), "jelly12"); got != 4 { // 2 cells: 1 log line + 1 table row each
		t.Errorf("filter kept the wrong cells (%d jelly12 mentions):\n%s", got, sb.String())
	}
}
