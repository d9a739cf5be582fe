package analysis

import (
	"math"
	"strings"
	"testing"

	"repro/internal/binset"
	"repro/internal/core"
	"repro/internal/greedy"
	"repro/internal/opq"
)

// planOf builds a plan from a literal use list; the test's uses are
// well-formed, so a rejection is a test bug.
func planOf(uses ...core.BinUse) *core.Plan {
	p, err := core.PlanFromUses(uses)
	if err != nil {
		panic(err)
	}
	return p
}

func examplePlan() (*core.Instance, *core.Plan) {
	in := core.MustHomogeneous(binset.Table1(), 4, 0.95)
	// Plan P2 of Example 4 (the optimum, cost 0.66).
	plan := planOf(
		core.BinUse{Cardinality: 3, Tasks: []int{0, 1, 2}},
		core.BinUse{Cardinality: 3, Tasks: []int{0, 1, 3}},
		core.BinUse{Cardinality: 2, Tasks: []int{2, 3}},
	)
	return in, plan
}

func TestAnalyzeExample4(t *testing.T) {
	in, plan := examplePlan()
	s, err := Analyze(in, plan)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Cost-0.66) > 1e-12 {
		t.Errorf("cost = %v", s.Cost)
	}
	if s.NumUses != 3 || s.NumAssignments != 8 {
		t.Errorf("uses/assignments = %d/%d", s.NumUses, s.NumAssignments)
	}
	if s.FillRate != 1.0 {
		t.Errorf("fill rate = %v, want 1 (all slots used)", s.FillRate)
	}
	if s.AssignmentsPerTask.Min != 2 || s.AssignmentsPerTask.Max != 2 {
		t.Errorf("assignments/task = %+v, want exactly 2 each", s.AssignmentsPerTask)
	}
	if !s.Feasible() {
		t.Error("the optimal plan must be feasible")
	}
	if s.Slack.Min < 0 {
		t.Errorf("slack.Min = %v", s.Slack.Min)
	}
	if s.OverProvisionCost <= 0 || s.OverProvisionCost >= s.Cost {
		t.Errorf("over-provision = %v outside (0, cost)", s.OverProvisionCost)
	}
	if s.CostByCardinality[3] != 0.48 || math.Abs(s.CostByCardinality[2]-0.18) > 1e-12 {
		t.Errorf("cost by cardinality = %v", s.CostByCardinality)
	}
}

func TestAnalyzeDetectsInfeasible(t *testing.T) {
	in := core.MustHomogeneous(binset.Table1(), 2, 0.95)
	weak := planOf(core.BinUse{Cardinality: 2, Tasks: []int{0, 1}})
	s, err := Analyze(in, weak)
	if err != nil {
		t.Fatal(err)
	}
	if s.Feasible() {
		t.Error("under-covered plan reported feasible")
	}
	if !strings.Contains(s.String(), "WARNING") {
		t.Error("report should warn about infeasibility")
	}
}

func TestAnalyzeUnknownBin(t *testing.T) {
	in := core.MustHomogeneous(binset.Table1(), 1, 0.5)
	bad := planOf(core.BinUse{Cardinality: 9, Tasks: []int{0}})
	if _, err := Analyze(in, bad); err == nil {
		t.Error("unknown cardinality accepted")
	}
}

func TestAnalyzeEmptyPlan(t *testing.T) {
	in := core.MustHomogeneous(binset.Table1(), 0, 0.9)
	s, err := Analyze(in, &core.Plan{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Cost != 0 || s.NumUses != 0 || s.FillRate != 0 {
		t.Errorf("empty stats = %+v", s)
	}
	if s.String() == "" {
		t.Error("empty report should still render")
	}
}

func TestPartialFillRate(t *testing.T) {
	in := core.MustHomogeneous(binset.Table1(), 1, 0.5)
	plan := planOf(core.BinUse{Cardinality: 3, Tasks: []int{0}})
	s, err := Analyze(in, plan)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.FillRate-1.0/3) > 1e-12 {
		t.Errorf("fill rate = %v, want 1/3", s.FillRate)
	}
}

func TestCompareRendersAllSolvers(t *testing.T) {
	in := core.MustHomogeneous(binset.Table1(), 60, 0.95)
	pg, err := greedy.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	po, err := (opq.Solver{}).Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Compare(in, map[string]*core.Plan{"Greedy": pg, "OPQ-Based": po})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Greedy") || !strings.Contains(out, "OPQ-Based") {
		t.Errorf("comparison missing solvers:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Errorf("expected header + 2 rows, got %d lines", len(lines))
	}
}

func TestCompareBadPlan(t *testing.T) {
	in := core.MustHomogeneous(binset.Table1(), 1, 0.5)
	bad := planOf(core.BinUse{Cardinality: 9, Tasks: []int{0}})
	if _, err := Compare(in, map[string]*core.Plan{"bad": bad}); err == nil {
		t.Error("Compare accepted a plan with unknown bins")
	}
}

func TestSummarizeDistribution(t *testing.T) {
	d := summarize([]float64{3, 1, 2})
	if d.Min != 1 || d.Max != 3 || d.Mean != 2 {
		t.Errorf("distribution = %+v", d)
	}
	if z := summarize(nil); z.Min != 0 || z.Max != 0 || z.Mean != 0 {
		t.Errorf("empty distribution = %+v", z)
	}
}
