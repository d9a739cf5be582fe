package refine

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/baseline"
	"repro/internal/binset"
	"repro/internal/core"
	"repro/internal/greedy"
	"repro/internal/hetero"
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

func TestRefineRemovesRedundantUse(t *testing.T) {
	in := core.MustHomogeneous(binset.Table1(), 2, 0.85)
	// One b1 per task suffices (r1 = 0.9 ≥ 0.85); a third use is waste.
	plan := planOf(
		core.BinUse{Cardinality: 1, Tasks: []int{0}},
		core.BinUse{Cardinality: 1, Tasks: []int{1}},
		core.BinUse{Cardinality: 2, Tasks: []int{0, 1}},
	)
	res, err := Refine(in, plan)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pruned == 0 {
		t.Error("expected at least one pruned use")
	}
	if res.CostAfter >= res.CostBefore {
		t.Errorf("no improvement: %v → %v", res.CostBefore, res.CostAfter)
	}
	// 0.20 (two b1) is the cheapest cover here.
	if math.Abs(res.CostAfter-0.20) > 1e-9 {
		t.Errorf("refined cost = %v, want 0.20", res.CostAfter)
	}
}

func TestRefineDowngradesOversizedBins(t *testing.T) {
	// One task covered by a 3-cardinality bin: b1 is cheaper, holds the
	// task, and its higher confidence keeps feasibility.
	in := core.MustHomogeneous(binset.Table1(), 1, 0.75)
	plan := planOf(core.BinUse{Cardinality: 3, Tasks: []int{0}})
	res, err := Refine(in, plan)
	if err != nil {
		t.Fatal(err)
	}
	if res.Downgraded != 1 {
		t.Errorf("downgraded = %d, want 1", res.Downgraded)
	}
	if math.Abs(res.CostAfter-0.10) > 1e-9 {
		t.Errorf("refined cost = %v, want 0.10 (one b1)", res.CostAfter)
	}
}

func TestRefineRejectsInfeasibleInput(t *testing.T) {
	in := core.MustHomogeneous(binset.Table1(), 2, 0.95)
	weak := planOf(core.BinUse{Cardinality: 2, Tasks: []int{0, 1}})
	if _, err := Refine(in, weak); err == nil {
		t.Error("infeasible input accepted")
	}
}

func TestRefineDoesNotModifyInput(t *testing.T) {
	in := core.MustHomogeneous(binset.Table1(), 2, 0.85)
	plan := planOf(
		core.BinUse{Cardinality: 1, Tasks: []int{0}},
		core.BinUse{Cardinality: 1, Tasks: []int{1}},
		core.BinUse{Cardinality: 2, Tasks: []int{0, 1}},
	)
	if _, err := Refine(in, plan); err != nil {
		t.Fatal(err)
	}
	if plan.NumUses() != 3 {
		t.Error("input plan was mutated")
	}
}

// TestRefineNeverHurts is the core property: on random instances and for
// every solver, refinement preserves feasibility and never increases cost.
func TestRefineNeverHurts(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	menus := []core.BinSet{binset.Table1(), binset.MustJelly(10), binset.MustSMIC(8)}
	for trial := 0; trial < 40; trial++ {
		menu := menus[trial%len(menus)]
		n := 1 + rng.Intn(80)
		th := make([]float64, n)
		for i := range th {
			th[i] = 0.4 + 0.55*rng.Float64()
		}
		in := core.MustHeterogeneous(menu, th)
		plans := map[string]*core.Plan{}
		var err error
		if plans["greedy"], err = greedy.Solve(in); err != nil {
			t.Fatal(err)
		}
		if plans["hetero"], err = hetero.Solve(in); err != nil {
			t.Fatal(err)
		}
		if plans["baseline"], err = baseline.Solve(in, int64(trial)); err != nil {
			t.Fatal(err)
		}
		for name, p := range plans {
			res, err := Refine(in, p)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, name, err)
			}
			if res.CostAfter > res.CostBefore+1e-9 {
				t.Errorf("trial %d %s: refinement raised cost %v → %v",
					trial, name, res.CostBefore, res.CostAfter)
			}
			if err := res.Plan.Validate(in); err != nil {
				t.Errorf("trial %d %s: refined plan infeasible: %v", trial, name, err)
			}
		}
	}
}

// TestRefineOnOPQOptimalBlocks: at n = k·LCM the OPQ plan is optimal
// (Corollary 1), so refinement must find nothing to improve.
func TestRefineOnOPQOptimalBlocks(t *testing.T) {
	menu := binset.Table1()
	q, err := opq.Build(menu, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	n := 4 * int(q.Elems[0].LCM)
	in := core.MustHomogeneous(menu, n, 0.95)
	plan, err := (opq.Solver{}).Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Refine(in, plan)
	if err != nil {
		t.Fatal(err)
	}
	if res.Saved() > 1e-9 {
		t.Errorf("refinement 'improved' an optimal plan by %v", res.Saved())
	}
}

func TestResultSaved(t *testing.T) {
	r := &Result{CostBefore: 2, CostAfter: 1.5}
	if r.Saved() != 0.5 {
		t.Errorf("Saved = %v", r.Saved())
	}
}
