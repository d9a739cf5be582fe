package main

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	slade "repro"
)

func TestGenSolveAnalyzeRoundTrip(t *testing.T) {
	dir := t.TempDir()
	inPath := filepath.Join(dir, "in.json")
	planPath := filepath.Join(dir, "plan.json")

	if err := gen([]string{"-n", "200", "-menu", "table1", "-dist", "normal",
		"-t", "0.9", "-sigma", "0.02", "-seed", "3", "-out", inPath}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(inPath)
	if err != nil {
		t.Fatal(err)
	}
	var in slade.Instance
	if err := json.Unmarshal(data, &in); err != nil {
		t.Fatal(err)
	}
	if in.N() != 200 || in.Bins().Len() != 3 {
		t.Fatalf("generated instance: n=%d bins=%d", in.N(), in.Bins().Len())
	}

	if err := solve([]string{"-in", inPath, "-algo", "opq-extended", "-out", planPath}); err != nil {
		t.Fatal(err)
	}
	pdata, err := os.ReadFile(planPath)
	if err != nil {
		t.Fatal(err)
	}
	var plan slade.Plan
	if err := json.Unmarshal(pdata, &plan); err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(&in); err != nil {
		t.Fatalf("saved plan infeasible: %v", err)
	}

	if err := analyze([]string{"-in", inPath}); err != nil {
		t.Fatal(err)
	}
	if err := analyze([]string{"-in", inPath, "-plan", planPath}); err != nil {
		t.Fatal(err)
	}
}

func TestGenMenusAndDistributions(t *testing.T) {
	dir := t.TempDir()
	cases := [][]string{
		{"-n", "50", "-menu", "jelly", "-maxcard", "10", "-dist", "homo", "-t", "0.9"},
		{"-n", "50", "-menu", "smic", "-maxcard", "10", "-dist", "uniform", "-lo", "0.7", "-hi", "0.9"},
		{"-n", "50", "-menu", "table1", "-dist", "pareto"},
	}
	for i, args := range cases {
		out := filepath.Join(dir, "x.json")
		if err := gen(append(args, "-out", out)); err != nil {
			t.Errorf("case %d: %v", i, err)
		}
	}
	if err := gen([]string{"-menu", "bogus", "-out", filepath.Join(dir, "y.json")}); err == nil {
		t.Error("unknown menu accepted")
	}
	if err := gen([]string{"-dist", "bogus", "-out", filepath.Join(dir, "y.json")}); err == nil {
		t.Error("unknown distribution accepted")
	}
}

func TestSolveFlagsValidation(t *testing.T) {
	if err := solve([]string{}); err == nil {
		t.Error("missing -in accepted")
	}
	if err := solve([]string{"-in", "/nonexistent.json"}); err == nil {
		t.Error("missing file accepted")
	}
	dir := t.TempDir()
	inPath := filepath.Join(dir, "in.json")
	if err := gen([]string{"-n", "10", "-menu", "table1", "-dist", "homo", "-t", "0.9", "-out", inPath}); err != nil {
		t.Fatal(err)
	}
	if err := solve([]string{"-in", inPath, "-algo", "bogus"}); err == nil {
		t.Error("unknown algorithm accepted")
	}
	// opq on a homogeneous instance works via explicit flag too.
	if err := solve([]string{"-in", inPath, "-algo", "opq"}); err != nil {
		t.Error(err)
	}
}

func TestAnalyzeValidation(t *testing.T) {
	if err := analyze([]string{}); err == nil {
		t.Error("missing -in accepted")
	}
	if err := analyze([]string{"-in", "/nonexistent.json"}); err == nil {
		t.Error("missing file accepted")
	}
}

func TestTablesAndDemo(t *testing.T) {
	if err := tables(); err != nil {
		t.Fatal(err)
	}
	if err := demo(); err != nil {
		t.Fatal(err)
	}
}

func TestPickSolver(t *testing.T) {
	in, err := slade.NewHomogeneous(slade.Table1Menu(), 4, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	s, err := pickSolver("auto", in)
	if err != nil || s.Name() != "OPQ-Based" {
		t.Errorf("auto(homo) = %v, %v", s, err)
	}
	hin, err := slade.NewHeterogeneous(slade.Table1Menu(), []float64{0.5, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	s, err = pickSolver("auto", hin)
	if err != nil || s.Name() != "OPQ-Extended" {
		t.Errorf("auto(hetero) = %v, %v", s, err)
	}
}

var updateOutput = flag.Bool("update", false, "rewrite testdata/*.golden from this checkout's output")

// TestPrintedOutputGolden pins what the subcommands print, byte for byte:
// the paper's tables, the Example 4 and 11 summary lines of demo, and
// analyze's comparison and single-plan report on a fixed gen instance
// (whose JSON is pinned too). solve is left out: it prints its wall time.
// Regenerate after an intentional change with
//
//	go test ./cmd/sladecli -run TestPrintedOutputGolden -update
func TestPrintedOutputGolden(t *testing.T) {
	dir := t.TempDir()
	inPath := filepath.Join(dir, "in.json")
	planPath := filepath.Join(dir, "plan.json")
	genArgs := []string{"-n", "60", "-menu", "jelly", "-maxcard", "6", "-dist", "normal",
		"-t", "0.9", "-sigma", "0.03", "-seed", "7"}
	instance := captureStdout(t, func() error { return gen(genArgs) })
	if err := os.WriteFile(inPath, []byte(instance), 0o644); err != nil {
		t.Fatal(err)
	}
	captureStdout(t, func() error { // prints its wall time; only the plan file is kept
		return solve([]string{"-in", inPath, "-algo", "opq-extended", "-out", planPath})
	})
	for _, c := range []struct {
		name string
		run  func() error
	}{
		{"gen", func() error { _, err := os.Stdout.WriteString(instance); return err }},
		{"tables", tables},
		{"demo", demo},
		{"analyze_compare", func() error { return analyze([]string{"-in", inPath}) }},
		{"analyze_plan", func() error { return analyze([]string{"-in", inPath, "-plan", planPath}) }},
	} {
		got := captureStdout(t, c.run)
		path := filepath.Join("testdata", c.name+".golden")
		if *updateOutput {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (rewrite with -update)", c.name, err)
		}
		if got != string(want) {
			t.Errorf("%s prints\n%s\nwant (%s)\n%s", c.name, got, path, want)
		}
	}
}

// captureStdout runs f with os.Stdout sent to a file and returns what it
// printed.
func captureStdout(t *testing.T, f func() error) string {
	t.Helper()
	out, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	saved := os.Stdout
	os.Stdout = out
	err = f()
	os.Stdout = saved
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}
