package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// smokeRun runs one tiny invocation in-process — two rounds at 2 % of the
// op count — and returns its text lines and decoded result line.
func smokeRun(t *testing.T, out string, w *workload, trace int) (lines []string, res result) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cfg := &config{workload: w.name, seed: 3, trace: trace, scale: 0.02, outDir: out, stdout: &stdout, stderr: &stderr}
	if err := runOnce(cfg, w); err != nil {
		t.Fatalf("%s trace=%d: %v\n%s%s", w.name, trace, err, stdout.String(), stderr.String())
	}
	lines = strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not a result: %v\n%s", w.name, err, lines[len(lines)-1])
	}
	return lines, res
}

// checkMetrics asserts that exactly the metrics of defs are reported, each
// once in the text and once in the result line, under the defined unit.
func checkMetrics(t *testing.T, label string, lines []string, res result, defs []metricDef) {
	t.Helper()
	printed := make(map[string][]string)
	for _, l := range lines {
		if f := strings.Fields(l); len(f) >= 3 {
			printed[f[0]] = append(printed[f[0]], f[2])
			if f[0] == "fail_ratio" && f[1] != "0.000000" {
				t.Errorf("%s: fail_ratio printed as %s", label, f[1])
			}
		}
	}
	if got := printed["fail_ratio"]; len(got) != 1 || got[0] != "ratio" {
		t.Errorf("%s: fail_ratio printed as %v, want once with unit \"ratio\"", label, got)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: result line has %d metrics, want %d", label, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		if got := printed[d.name]; len(got) != 1 || got[0] != d.unit {
			t.Errorf("%s: %s printed as %v, want once with unit %q", label, d.name, got, d.unit)
		}
		if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
			t.Errorf("%s: result line has %s = %+v (present %v), want unit %q", label, d.name, m, ok, d.unit)
		}
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s: correct=%v failed=%d attempted=%d", label, res.Correct, res.Failed, res.Attempted)
	}
}

func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the full stack for every workload")
	}
	out := t.TempDir()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			lines, first := smokeRun(t, out, &w, 0)
			checkMetrics(t, "timed", lines, first, endToEnd)
			_, second := smokeRun(t, out, &w, 0)
			for _, d := range endToEnd {
				if a, b := first.Metrics[d.name].Value, second.Metrics[d.name].Value; d.exact && (a != b || a == 0) {
					t.Errorf("%s differs between two same-seed runs (or is 0): %v vs %v", d.name, a, b)
				}
			}

			lines, traced := smokeRun(t, out, &w, 1)
			checkMetrics(t, "traced", lines, traced, perLayer)
			checkSpans(t, filepath.Join(out, w.name+".trace.jsonl"))
		})
	}
	left, err := filepath.Glob(filepath.Join(out, "*store-*"))
	if err != nil || len(left) > 0 {
		t.Errorf("scratch stores left behind: %v (%v)", left, err)
	}
}

// checkSpans parses the span file and requires every parent to be there,
// one depth further out, for the same op.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	byID := make(map[int]span)
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("%s: %v in %q", path, err, sc.Text())
		}
		byID[s.ID] = s
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil || len(spans) == 0 {
		t.Fatalf("%s: %d spans, %v", path, len(spans), err)
	}
	for _, s := range spans {
		if s.End < s.Start {
			t.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Depth == 0 {
			if s.Parent != 0 {
				t.Errorf("outermost span %d (%s) names parent %d", s.ID, s.Name, s.Parent)
			}
			continue
		}
		p, ok := byID[s.Parent]
		if !ok || p.Op != s.Op || p.Depth != s.Depth-1 {
			t.Errorf("span %d (%s, op %d, depth %d): parent %d is %+v (present %v)", s.ID, s.Name, s.Op, s.Depth, s.Parent, p, ok)
		}
	}
}

// TestBenchmarkJSONMatchesDefs keeps BENCHMARK.json, which the acceptance
// driver reads, in step with the tables the program reports from.
func TestBenchmarkJSONMatchesDefs(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var bj struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []jsonMetric `json:"end_to_end"`
		PerLayer []jsonMetric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d defined", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, defined %q: %q", i, bj.Workloads[i], w.name, w.why)
		}
	}
	same := func(kind string, got []jsonMetric, defs []metricDef, bounded bool) {
		if len(got) != len(defs) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d defined", len(got), kind, len(defs))
		}
		for i, d := range defs {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, defined %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.bound) {
				t.Errorf("%s %s: bound %v in BENCHMARK.json, defined %v (bounded %v)", kind, d.name, g.Bound, d.bound, bounded)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd, true)
	same("per_layer", bj.PerLayer, perLayer, false)
	if len(bj.Paths) != 1 || bj.Paths[0] != "benchmark" || bj.RunSeconds < 1 || len(bj.Command) == 0 {
		t.Errorf("paths %v, run_seconds %d, command %v", bj.Paths, bj.RunSeconds, bj.Command)
	}
}
