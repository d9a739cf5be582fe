package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestReliabilityMonotoneInUses: adding any bin use never lowers any task's
// reliability (quick-checked over random plans).
func TestReliabilityMonotoneInUses(t *testing.T) {
	bs := table1()
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 200; trial++ {
		const n = 6
		uses := randomUses(rng, n)
		before, err := planOf(uses...).Reliability(n, bs)
		if err != nil {
			t.Fatal(err)
		}
		// Append one random extra use.
		uses = append(uses, randomUse(rng, n))
		after, err := planOf(uses...).Reliability(n, bs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range before {
			if after[i] < before[i]-1e-12 {
				t.Fatalf("trial %d: reliability of task %d fell from %v to %v",
					trial, i, before[i], after[i])
			}
		}
	}
}

func randomUse(rng *rand.Rand, n int) BinUse {
	card := 1 + rng.Intn(3)
	use := BinUse{Cardinality: card}
	perm := rng.Perm(n)
	for i := 0; i < card && i < n; i++ {
		use.Tasks = append(use.Tasks, perm[i])
	}
	return use
}

func randomUses(rng *rand.Rand, n int) []BinUse {
	var uses []BinUse
	for i := 0; i < rng.Intn(6); i++ {
		uses = append(uses, randomUse(rng, n))
	}
	return uses
}

// TestTransformedMassLinear: the transformed mass of a merged plan is the
// sum of the parts' masses (quick-checked).
func TestTransformedMassLinear(t *testing.T) {
	bs := table1()
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 200; trial++ {
		const n = 5
		a := planOf(randomUses(rng, n)...)
		b := planOf(randomUses(rng, n)...)
		ma, err := a.TransformedMass(n, bs)
		if err != nil {
			t.Fatal(err)
		}
		mb, err := b.TransformedMass(n, bs)
		if err != nil {
			t.Fatal(err)
		}
		merged := MergePlans(a, b)
		mm, err := merged.TransformedMass(n, bs)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if math.Abs(mm[i]-(ma[i]+mb[i])) > 1e-12 {
				t.Fatalf("trial %d: mass not additive at task %d", trial, i)
			}
		}
	}
}

// TestReliabilityNeverExceedsOne is a quick property over arbitrary
// threshold/confidence inputs.
func TestReliabilityNeverExceedsOne(t *testing.T) {
	f := func(r1, r2, r3 float64) bool {
		// Map arbitrary floats into (0,1).
		rs := []float64{sq(r1), sq(r2), sq(r3)}
		mass := 0.0
		for _, r := range rs {
			mass += -math.Log1p(-r)
		}
		rel := ThresholdFromTheta(mass)
		return rel >= 0 && rel <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// sq maps an arbitrary float into (0, 1), NaN-safe.
func sq(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0.5
	}
	x := math.Abs(v)
	return (x / (1 + x) * 0.98) + 0.01
}

// TestLowerBoundBelowAnyFeasiblePlan: the fractional bound never exceeds
// the cost of a feasible plan built by saturating every task with the
// cheapest bin.
func TestLowerBoundBelowAnyFeasiblePlan(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	bs := table1()
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(10)
		th := make([]float64, n)
		for i := range th {
			th[i] = rng.Float64() * 0.97
		}
		in := MustHeterogeneous(bs, th)
		var uses []BinUse
		b1, _ := bs.ByCardinality(1)
		for i := 0; i < n; i++ {
			need := in.Theta(i)
			for need > 0 {
				uses = append(uses, BinUse{Cardinality: 1, Tasks: []int{i}})
				need -= b1.Weight()
			}
		}
		plan := planOf(uses...)
		if err := plan.Validate(in); err != nil {
			t.Fatalf("trial %d: saturation plan infeasible: %v", trial, err)
		}
		if lb := LowerBoundLP(in); lb > plan.MustCost(bs)+1e-9 {
			t.Fatalf("trial %d: LP bound %v above feasible cost %v", trial, lb, plan.MustCost(bs))
		}
	}
}
