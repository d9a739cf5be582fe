package slade

import (
	"math"
	"testing"

	"repro/internal/opq"
)

// TestQuickstart exercises the documented quick-start path end to end.
func TestQuickstart(t *testing.T) {
	bins, err := NewBinSet([]TaskBin{
		{Cardinality: 1, Confidence: 0.90, Cost: 0.10},
		{Cardinality: 2, Confidence: 0.85, Cost: 0.18},
		{Cardinality: 3, Confidence: 0.80, Cost: 0.24},
	})
	if err != nil {
		t.Fatal(err)
	}
	in, err := NewHomogeneous(bins, 100, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Decompose(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(in); err != nil {
		t.Fatalf("infeasible plan: %v", err)
	}
	cost, err := plan.Cost(bins)
	if err != nil {
		t.Fatal(err)
	}
	if cost <= 0 {
		t.Errorf("cost = %v", cost)
	}
}

func TestDecomposeHeterogeneous(t *testing.T) {
	in, err := NewHeterogeneous(Table1Menu(), []float64{0.5, 0.6, 0.7, 0.86})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Decompose(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(in); err != nil {
		t.Fatal(err)
	}
	// Example 11: the OPQ-Extended plan costs 0.38.
	if cost := plan.MustCost(in.Bins()); math.Abs(cost-0.38) > 1e-9 {
		t.Errorf("cost = %v, want 0.38", cost)
	}
}

func TestDecomposeNil(t *testing.T) {
	if _, err := Decompose(nil); err == nil {
		t.Error("Decompose(nil) should error")
	}
}

func TestAllSolversOnOneInstance(t *testing.T) {
	in, err := NewHomogeneous(Table1Menu(), 50, 0.92)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Solver{NewGreedy(), NewOPQ(), NewOPQExtended(), NewBaseline(7)} {
		p, err := s.Solve(in)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if err := p.Validate(in); err != nil {
			t.Fatalf("%s: infeasible: %v", s.Name(), err)
		}
	}
}

func TestBuildOPQAndSolve(t *testing.T) {
	q, err := BuildOPQ(Table1Menu(), 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Elems) != 3 {
		t.Fatalf("queue len = %d, want 3 (Table 3)", len(q.Elems))
	}
	plan, err := opq.SolveRuns(q, []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	// n = LCM = 3: optimal cost 3 × 0.16 = 0.48.
	if cost := plan.MustCost(Table1Menu()); math.Abs(cost-0.48) > 1e-9 {
		t.Errorf("cost = %v, want 0.48", cost)
	}
}

func TestMenusAndPlatforms(t *testing.T) {
	jm, err := JellyMenu(20)
	if err != nil {
		t.Fatal(err)
	}
	sm, err := SMICMenu(20)
	if err != nil {
		t.Fatal(err)
	}
	if jm.Len() != 20 || sm.Len() != 20 {
		t.Errorf("menus: %d, %d bins", jm.Len(), sm.Len())
	}
	jp := NewJellyPlatform(1)
	if jp.Params().Name != "Jelly" {
		t.Error("Jelly platform mislabeled")
	}
	if NewSMICPlatform(1).Params().Name != "SMIC" {
		t.Error("SMIC platform mislabeled")
	}
}

func TestCalibrateFacade(t *testing.T) {
	res, err := Calibrate(NewJellyPlatform(3), CalibrationOptions{MaxCardinality: 8, Assignments: 30})
	if err != nil {
		t.Fatal(err)
	}
	if res.Bins.Len() == 0 {
		t.Error("calibration returned empty menu")
	}
}

func TestThresholdGenerators(t *testing.T) {
	if len(HomogeneousThresholds(5, 0.9)) != 5 {
		t.Error("HomogeneousThresholds broken")
	}
	th, err := NormalThresholds(100, 0.9, 0.03, DefaultThresholdBounds, 2)
	if err != nil || len(th) != 100 {
		t.Errorf("NormalThresholds: %v, %d", err, len(th))
	}
	if _, err := UniformThresholds(10, 0.6, 0.9, DefaultThresholdBounds, 2); err != nil {
		t.Error(err)
	}
	if _, err := HeavyTailedThresholds(10, 1.5, 0.02, DefaultThresholdBounds, 2); err != nil {
		t.Error(err)
	}
}

func TestThetaHelpers(t *testing.T) {
	if math.Abs(ThresholdFromTheta(Theta(0.9))-0.9) > 1e-12 {
		t.Error("Theta round trip broken")
	}
}
