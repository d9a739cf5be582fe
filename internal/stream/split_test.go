package stream

import (
	"math"
	"strings"
	"testing"

	"repro/internal/binset"
	"repro/internal/core"
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

// solveLocal runs the OPQ-Based solve for n tasks in local id space.
func solveLocal(t *testing.T, menu core.BinSet, thr float64, n int) *core.Plan {
	t.Helper()
	in := core.MustHomogeneous(menu, n, thr)
	plan, err := (opq.Solver{}).Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestSplitPlanRoundTrip is the helper's defining property: merging
// per-caller plans offset into the concatenated id space and splitting
// back recovers each caller's plan exactly (same use multiset, same
// cost, local ids).
func TestSplitPlanRoundTrip(t *testing.T) {
	menu := binset.Table1()
	const thr = 0.95
	sizes := []int{7, 3, 12, 1, 3}

	var originals []*core.Plan
	var parts []*core.Plan
	offset := 0
	for _, n := range sizes {
		p := solveLocal(t, menu, thr, n)
		originals = append(originals, core.MergePlans(p)) // deep copy
		p.OffsetTasks(offset)
		parts = append(parts, p)
		offset += n
	}
	merged := core.MergePlans(parts...)
	mergedCost := merged.MustCost(menu)

	plans, err := SplitPlan(merged, sizes)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != len(sizes) {
		t.Fatalf("got %d plans for %d callers", len(plans), len(sizes))
	}
	total := 0.0
	for i, p := range plans {
		in := core.MustHomogeneous(menu, sizes[i], thr)
		if err := p.Validate(in); err != nil {
			t.Fatalf("caller %d: split plan invalid: %v", i, err)
		}
		want := originals[i].MustCost(menu)
		got := p.MustCost(menu)
		if got != want {
			t.Errorf("caller %d: split cost %v != original %v", i, got, want)
		}
		if p.NumUses() != originals[i].NumUses() {
			t.Errorf("caller %d: %d uses != original %d", i, p.NumUses(), originals[i].NumUses())
		}
		total += got
	}
	// Summation order differs between the merged walk and the per-caller
	// walks, so compare within float tolerance; per-caller parity above
	// stays exact (identical use order).
	if math.Abs(total-mergedCost) > 1e-9 {
		t.Errorf("per-caller costs sum to %v, merged cost %v", total, mergedCost)
	}
}

func TestSplitPlanRejectsLeakage(t *testing.T) {
	// A use holding tasks 2 and 3 spans the boundary between caller 0
	// ([0,3)) and caller 1 ([3,6)).
	merged := planOf(
		core.BinUse{Cardinality: 3, Tasks: []int{2, 3}},
	)
	if _, err := SplitPlan(merged, []int{3, 3}); err == nil {
		t.Fatal("cross-caller use not rejected")
	} else if !strings.Contains(err.Error(), "leaks") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestSplitPlanRejectsMalformedInput(t *testing.T) {
	good := planOf(core.BinUse{Cardinality: 1, Tasks: []int{0}})
	cases := map[string]func() (*core.Plan, []int){
		"nil plan":      func() (*core.Plan, []int) { return nil, []int{1} },
		"no sizes":      func() (*core.Plan, []int) { return good, nil },
		"negative size": func() (*core.Plan, []int) { return good, []int{2, -1} },
		"task out of range": func() (*core.Plan, []int) {
			return planOf(core.BinUse{Cardinality: 1, Tasks: []int{5}}), []int{2}
		},
		"empty run": func() (*core.Plan, []int) {
			comb := &core.RunComb{Parts: []core.RunPart{{Cardinality: 1, Count: 1}}, BlockLen: 1}
			return core.NewRunPlan(&core.PlanRuns{Runs: []core.BlockRun{{Comb: comb}}}), []int{2}
		},
	}
	for name, mk := range cases {
		p, sizes := mk()
		if _, err := SplitPlan(p, sizes); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

// TestSplitPlanZeroSizeCaller covers a caller that contributed no tasks:
// it gets an empty plan and its neighbors' ids still rebase correctly.
func TestSplitPlanZeroSizeCaller(t *testing.T) {
	// Merged caller by caller, as the contract requires: one flat use list
	// would compact the two full 2-bins into a single cross-caller run.
	merged := core.MergePlans(
		planOf(core.BinUse{Cardinality: 2, Tasks: []int{0, 1}}),
		planOf(core.BinUse{Cardinality: 2, Tasks: []int{2, 3}}),
	)
	plans, err := SplitPlan(merged, []int{2, 0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if plans[1].NumUses() != 0 {
		t.Errorf("zero-size caller got %d uses", plans[1].NumUses())
	}
	if got := plans[2].Materialized()[0].Tasks; got[0] != 0 || got[1] != 1 {
		t.Errorf("caller 2 tasks not rebased: %v", got)
	}
}
