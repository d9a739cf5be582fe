package core

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// planOf builds a plan from a literal use list; the test's uses are
// well-formed, so a rejection is a test bug.
func planOf(uses ...BinUse) *Plan {
	p, err := PlanFromUses(uses)
	if err != nil {
		panic(err)
	}
	return p
}

// examplePlanP1 is plan P1 of Example 4: four 2-cardinality bins
// {a1,a2} ×2 and {a3,a4} ×2, total cost 0.72, reliability 0.9775 each.
func examplePlanP1() *Plan {
	return planOf(
		BinUse{Cardinality: 2, Tasks: []int{0, 1}},
		BinUse{Cardinality: 2, Tasks: []int{0, 1}},
		BinUse{Cardinality: 2, Tasks: []int{2, 3}},
		BinUse{Cardinality: 2, Tasks: []int{2, 3}},
	)
}

// examplePlanP2 is plan P2 of Example 4: {a1,a2,a3}, {a1,a2,a4}, {a3,a4},
// total cost 0.66 — the optimal plan for t = 0.95.
func examplePlanP2() *Plan {
	return planOf(
		BinUse{Cardinality: 3, Tasks: []int{0, 1, 2}},
		BinUse{Cardinality: 3, Tasks: []int{0, 1, 3}},
		BinUse{Cardinality: 2, Tasks: []int{2, 3}},
	)
}

func TestExample4PlanP1(t *testing.T) {
	in := MustHomogeneous(table1(), 4, 0.95)
	p := examplePlanP1()
	if err := p.Validate(in); err != nil {
		t.Fatalf("P1 should be feasible: %v", err)
	}
	cost := p.MustCost(in.Bins())
	if math.Abs(cost-0.72) > 1e-12 {
		t.Errorf("P1 cost = %v, want 0.72", cost)
	}
	rel, err := p.Reliability(4, in.Bins())
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rel {
		// 1 - 0.15^2 = 0.9775 (the paper rounds to 0.98).
		if math.Abs(r-0.9775) > 1e-9 {
			t.Errorf("P1 reliability[%d] = %v, want 0.9775", i, r)
		}
	}
}

func TestExample4PlanP2(t *testing.T) {
	in := MustHomogeneous(table1(), 4, 0.95)
	p := examplePlanP2()
	if err := p.Validate(in); err != nil {
		t.Fatalf("P2 should be feasible: %v", err)
	}
	cost := p.MustCost(in.Bins())
	if math.Abs(cost-0.66) > 1e-12 {
		t.Errorf("P2 cost = %v, want 0.66", cost)
	}
}

func TestPlanValidateCatchesViolations(t *testing.T) {
	in := MustHomogeneous(table1(), 4, 0.95)
	cases := []struct {
		name string
		uses []BinUse
	}{
		{"unknown bin", []BinUse{{Cardinality: 7, Tasks: []int{0}}}},
		{"overfull bin", []BinUse{{Cardinality: 1, Tasks: []int{0, 1}}}}, // caught before Validate: no plan can hold it
		{"duplicate task in bin", []BinUse{{Cardinality: 2, Tasks: []int{0, 0}}}},
		{"duplicate apart in bin", []BinUse{{Cardinality: 3, Tasks: []int{0, 1, 0}}}},
		{"out of range task", []BinUse{{Cardinality: 1, Tasks: []int{4}}}},
		{"negative task", []BinUse{{Cardinality: 1, Tasks: []int{-1}}}},
		{"below threshold", examplePlanUnder().Materialized()},
		{"empty plan", nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p, err := PlanFromUses(c.uses)
			if err == nil {
				err = p.Validate(in)
			}
			if err == nil {
				t.Errorf("infeasible plan %q accepted", c.name)
			}
		})
	}
}

// spanMenu and spanPlan give the shape of one solved span of n tasks: full
// blocks of a two-bin combination over the identity arena 0..n-1 plus a
// padded remainder, every task three times at confidence 0.9 — feasible at
// t = 0.99. The bins are wide (12 and 24) because a per-use set of eight or
// fewer tasks never left the stack, which hid what the sets cost on real
// menus.
func spanMenu() BinSet {
	return MustBinSet([]TaskBin{
		{Cardinality: 12, Confidence: 0.9, Cost: 0.5},
		{Cardinality: 24, Confidence: 0.9, Cost: 0.9},
	})
}

func spanPlan(n int) *Plan {
	comb := &RunComb{Parts: []RunPart{{Cardinality: 12, Count: 2}, {Cardinality: 24, Count: 1}}, BlockLen: 24}
	blocks := n / comb.BlockLen
	pr := &PlanRuns{N: n, Runs: []BlockRun{{Comb: comb, Blocks: blocks, Off: 0, Len: blocks * comb.BlockLen}}}
	if rem := n - blocks*comb.BlockLen; rem > 0 {
		pr.Runs = append(pr.Runs, BlockRun{Comb: comb, Blocks: 0, Off: n - rem, Len: rem})
	}
	return NewRunPlan(pr)
}

// TestValidateAllocs: Validate's allocations do not grow with the number
// of uses — two n-sized slices (the duplicate stamp and the mass) and small
// change, where a set per use cost up to three allocations per use.
func TestValidateAllocs(t *testing.T) {
	for _, n := range []int{100, 33_334, 400_000} {
		plan, in := spanPlan(n), MustHomogeneous(spanMenu(), n, 0.99)
		allocs := testing.AllocsPerRun(5, func() {
			if err := plan.Validate(in); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("n=%d, %d uses: %.0f allocs", n, plan.NumUses(), allocs)
		if allocs > 16 {
			t.Errorf("n=%d (%d uses): Validate made %.0f allocations, want at most 16", n, plan.NumUses(), allocs)
		}
	}
}

// BenchmarkValidate measures the check a cluster node runs on every peer
// reply, on the plan as it comes off the wire: one 33,334-task span, a
// third of cluster-fanout's n = 100,000.
func BenchmarkValidate(b *testing.B) {
	const n = 33_334
	plan, in := planOf(spanPlan(n).Materialized()...), MustHomogeneous(spanMenu(), n, 0.99)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := plan.Validate(in); err != nil {
			b.Fatal(err)
		}
	}
}

// examplePlanUnder covers each task once with b2 (rel 0.85 < 0.95).
func examplePlanUnder() *Plan {
	return planOf(
		BinUse{Cardinality: 2, Tasks: []int{0, 1}},
		BinUse{Cardinality: 2, Tasks: []int{2, 3}},
	)
}

func TestPlanCountsAndAssignments(t *testing.T) {
	p := examplePlanP2()
	counts := p.Counts()
	if counts[3] != 2 || counts[2] != 1 {
		t.Errorf("Counts = %v, want map[2:1 3:2]", counts)
	}
	if p.NumUses() != 3 {
		t.Errorf("NumUses = %d, want 3", p.NumUses())
	}
	if p.NumAssignments() != 8 {
		t.Errorf("NumAssignments = %d, want 8", p.NumAssignments())
	}
}

func TestPlanCostUnknownBin(t *testing.T) {
	p := planOf(BinUse{Cardinality: 9, Tasks: []int{0}})
	if _, err := p.Cost(table1()); err == nil {
		t.Error("Cost accepted unknown cardinality")
	}
}

func TestTransformedMassAdds(t *testing.T) {
	bs := table1()
	p := planOf(
		BinUse{Cardinality: 1, Tasks: []int{0}},
		BinUse{Cardinality: 3, Tasks: []int{0, 1, 2}},
	)
	mass, err := p.TransformedMass(3, bs)
	if err != nil {
		t.Fatal(err)
	}
	w1 := -math.Log1p(-0.9)
	w3 := -math.Log1p(-0.8)
	want := []float64{w1 + w3, w3, w3}
	for i := range want {
		if math.Abs(mass[i]-want[i]) > 1e-12 {
			t.Errorf("mass[%d] = %v, want %v", i, mass[i], want[i])
		}
	}
}

func TestMergePlans(t *testing.T) {
	a := planOf(BinUse{Cardinality: 1, Tasks: []int{0}})
	b := planOf(BinUse{Cardinality: 2, Tasks: []int{1, 2}})
	merged := MergePlans(a, nil, b, &Plan{})
	if merged.NumUses() != 2 || merged.NumAssignments() != 3 {
		t.Fatalf("merged = %d uses / %d assignments, want 2/3", merged.NumUses(), merged.NumAssignments())
	}
	// Inputs are not aliased into appends past their own uses.
	if a.NumUses() != 1 || b.NumUses() != 1 {
		t.Fatal("MergePlans mutated its inputs")
	}
	// Task slices are copied: offsetting the merged plan must leave the
	// inputs untouched.
	merged.OffsetTasks(100)
	if a.Materialized()[0].Tasks[0] != 0 || b.Materialized()[0].Tasks[0] != 1 {
		t.Fatal("merged plan aliases input task slices")
	}
	merged.OffsetTasks(-100)
	cost, err := merged.Cost(table1())
	if err != nil {
		t.Fatal(err)
	}
	if want := 0.10 + 0.18; math.Abs(cost-want) > 1e-12 {
		t.Fatalf("merged cost %v, want %v (additive)", cost, want)
	}
	if empty := MergePlans(); empty == nil || empty.NumUses() != 0 {
		t.Fatal("MergePlans() must return an empty plan")
	}
}

func TestOffsetTasks(t *testing.T) {
	p := planOf(
		BinUse{Cardinality: 2, Tasks: []int{0, 1}},
		BinUse{Cardinality: 1, Tasks: []int{2}},
	)
	p.OffsetTasks(10)
	uses := p.Materialized()
	if got := uses[0].Tasks[0]; got != 10 {
		t.Fatalf("offset task = %d, want 10", got)
	}
	if got := uses[1].Tasks[0]; got != 12 {
		t.Fatalf("offset task = %d, want 12", got)
	}
	p.OffsetTasks(-10)
	if uses[0].Tasks[0] != 0 || uses[1].Tasks[0] != 2 {
		t.Fatal("negative offset must invert")
	}
	(&Plan{}).OffsetTasks(3) // the zero plan has nothing to shift
}

func TestSummaryString(t *testing.T) {
	in := MustHomogeneous(table1(), 4, 0.95)
	s, err := examplePlanP2().Summarize(in.Bins())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Cost-0.66) > 1e-12 {
		t.Errorf("Summary.Cost = %v, want 0.66", s.Cost)
	}
	str := s.String()
	if !strings.Contains(str, "1×b2") || !strings.Contains(str, "2×b3") {
		t.Errorf("Summary.String() = %q, want it to mention 1×b2 and 2×b3", str)
	}
	empty := Summary{}
	if !strings.Contains(empty.String(), "(empty)") {
		t.Errorf("empty Summary.String() = %q", empty.String())
	}
}

func TestLowerBoundLP(t *testing.T) {
	in := MustHomogeneous(table1(), 4, 0.95)
	lb := LowerBoundLP(in)
	// The optimal plan P2 costs 0.66; the LP bound must be below it but
	// positive.
	if lb <= 0 || lb > 0.66+1e-12 {
		t.Errorf("LowerBoundLP = %v, want in (0, 0.66]", lb)
	}
	// b1 has the best cost per unit mass: 0.1/(1*2.303) = 0.0434;
	// total demand 4*2.996 = 11.98 → bound ≈ 0.5204.
	want := 0.10 / (1 * -math.Log1p(-0.9)) * 4 * Theta(0.95)
	if math.Abs(lb-want) > 1e-9 {
		t.Errorf("LowerBoundLP = %v, want %v", lb, want)
	}
}

func TestLowerBoundEmptyMenu(t *testing.T) {
	in := MustHeterogeneous(BinSet{}, nil)
	if lb := LowerBoundLP(in); lb != 0 {
		t.Errorf("LowerBoundLP on empty instance = %v, want 0", lb)
	}
}

func TestInstanceJSONRoundTrip(t *testing.T) {
	in := MustHeterogeneous(table1(), []float64{0.5, 0.6, 0.7, 0.86})
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var back Instance
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.N() != 4 || back.Threshold(3) != 0.86 {
		t.Errorf("round-trip lost data: n=%d t3=%v", back.N(), back.Threshold(3))
	}
	if back.Bins().Len() != 3 {
		t.Errorf("round-trip lost bins: %d", back.Bins().Len())
	}
}

func TestInstanceJSONRejectsBad(t *testing.T) {
	var in Instance
	bad := []string{
		`{"bins":[{"cardinality":1,"confidence":2,"cost":0.1}],"thresholds":[0.5]}`,
		`{"bins":[],"thresholds":[0.5]}`,
		`{"bins":[{"cardinality":1,"confidence":0.9,"cost":0.1}],"thresholds":[1.5]}`,
		`{not json`,
	}
	for _, s := range bad {
		if err := json.Unmarshal([]byte(s), &in); err == nil {
			t.Errorf("UnmarshalJSON accepted %q", s)
		}
	}
}

func TestPlanJSONRoundTrip(t *testing.T) {
	p := examplePlanP2()
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var back Plan
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	assertPlanIsUses(t, &back, p.Materialized())
}
