package slade

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
)

// Tests for the facade of the extension layers: execution, budgeting,
// streaming and plan diagnostics.

func TestExecuteFacade(t *testing.T) {
	menu, err := JellyMenu(15)
	if err != nil {
		t.Fatal(err)
	}
	in, err := NewHomogeneous(menu, 300, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Decompose(in)
	if err != nil {
		t.Fatal(err)
	}
	truth := make([]bool, 300)
	for i := range truth {
		truth[i] = i%4 == 0
	}
	pl := NewJellyPlatform(12)
	rep, err := Execute(pl, in, plan, truth, ExecutionOptions{TopUp: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Spent < rep.PlannedCost {
		t.Errorf("spent %v below planned %v", rep.Spent, rep.PlannedCost)
	}
	if rep.EmpiricalReliability < 0.9 {
		t.Errorf("empirical reliability %v too low for a 0.95 plan", rep.EmpiricalReliability)
	}
}

func TestMaxReliabilityFacade(t *testing.T) {
	res, err := MaxReliability(Table1Menu(), 100, 30, BudgetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost > 30+1e-9 {
		t.Errorf("cost %v above budget", res.Cost)
	}
	if res.Threshold <= 0.5 {
		t.Errorf("threshold %v suspiciously low for a generous budget", res.Threshold)
	}
}

func TestCostCurveFacade(t *testing.T) {
	curve, err := CostCurve(Table1Menu(), 100, []float64{0.8, 0.9, 0.95})
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) != 3 || curve[2] < curve[0] {
		t.Errorf("curve = %v", curve)
	}
}

func TestStreamPlannerFacade(t *testing.T) {
	p, err := NewStreamPlanner(Table1Menu(), 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if p.BlockSize() != 3 {
		t.Errorf("BlockSize = %d", p.BlockSize())
	}
	if _, err := p.Add(0, 1, 2, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if p.EmittedTasks() != 4 {
		t.Errorf("EmittedTasks = %d", p.EmittedTasks())
	}
}

func TestAnalyzeAndCompareFacades(t *testing.T) {
	in, err := NewHomogeneous(Table1Menu(), 30, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	pg, err := NewGreedy().Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	po, err := NewOPQ().Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := AnalyzePlan(in, po)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Slack.Min < -core.RelTol {
		t.Error("OPQ plan reported infeasible")
	}
	cg, co := pg.MustCost(in.Bins()), po.MustCost(in.Bins())
	if co > cg+1e-9 {
		t.Errorf("OPQ cost %v above Greedy %v on the running menu", co, cg)
	}
	out, err := ComparePlans(in, map[string]*Plan{"Greedy": pg, "OPQ-Based": po})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Greedy") || !strings.Contains(out, "OPQ-Based") {
		t.Errorf("comparison output:\n%s", out)
	}
}

// TestBudgetInvertsDecompose closes the loop between the two APIs: the
// threshold MaxReliability returns must be achievable by Decompose within
// the same budget.
func TestBudgetInvertsDecompose(t *testing.T) {
	menu := Table1Menu()
	const n, budgetUSD = 60, 15.0
	res, err := MaxReliability(menu, n, budgetUSD, BudgetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	in, err := NewHomogeneous(menu, n, res.Threshold)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Decompose(in)
	if err != nil {
		t.Fatal(err)
	}
	cost, err := plan.Cost(menu)
	if err != nil {
		t.Fatal(err)
	}
	if cost > budgetUSD+1e-9 {
		t.Errorf("Decompose at the budgeted threshold costs %v > %v", cost, budgetUSD)
	}
	if math.Abs(cost-res.Cost) > 1e-9 {
		t.Errorf("cost mismatch: budget search %v vs direct %v", res.Cost, cost)
	}
}
