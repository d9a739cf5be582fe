package greedy

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
)

func table1() core.BinSet {
	return core.MustBinSet([]core.TaskBin{
		{Cardinality: 1, Confidence: 0.90, Cost: 0.10},
		{Cardinality: 2, Confidence: 0.85, Cost: 0.18},
		{Cardinality: 3, Confidence: 0.80, Cost: 0.24},
	})
}

// TestExample5 reproduces Example 5 of the paper: Greedy on the Table-1 menu
// with 4 tasks at t = 0.95 yields the plan {a1},{a2},{a3},{a4},{a1,a2,a3},
// {a4} — five 1-cardinality bins and one 3-cardinality bin, cost 0.74.
func TestExample5(t *testing.T) {
	in := core.MustHomogeneous(table1(), 4, 0.95)
	for name, solve := range map[string]func(*core.Instance) (*core.Plan, error){
		"Solve": Solve, "SolveNaive": SolveNaive,
	} {
		t.Run(name, func(t *testing.T) {
			p, err := solve(in)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Validate(in); err != nil {
				t.Fatalf("infeasible plan: %v", err)
			}
			cost := p.MustCost(in.Bins())
			if math.Abs(cost-0.74) > 1e-9 {
				t.Errorf("cost = %v, want 0.74", cost)
			}
			sum, err := p.Summarize(in.Bins())
			if err != nil {
				t.Fatal(err)
			}
			if got, want := sum.String(), "5×b1 + 1×b3 = $0.7400"; got != want {
				t.Errorf("plan %s, want %s", got, want)
			}
		})
	}
}

func TestEmptyInstance(t *testing.T) {
	in := core.MustHomogeneous(table1(), 0, 0.95)
	p, err := Solve(in)
	if err != nil || p.NumUses() != 0 {
		t.Errorf("Solve(empty) = %v, %v", p, err)
	}
}

func TestZeroThreshold(t *testing.T) {
	in := core.MustHomogeneous(table1(), 5, 0)
	p, err := Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumUses() != 0 {
		t.Errorf("t=0 should need no bins, got %d uses", p.NumUses())
	}
}

func TestEmptyMenuErrors(t *testing.T) {
	in := core.MustHeterogeneous(core.BinSet{}, nil)
	// n=0 with empty menu is fine; n>0 cannot even be constructed, so force
	// the solver path with a crafted instance of zero tasks.
	if _, err := Solve(in); err != nil {
		t.Errorf("Solve with zero tasks should succeed, got %v", err)
	}
}

func TestSingleBinMenu(t *testing.T) {
	bins := core.MustBinSet([]core.TaskBin{{Cardinality: 4, Confidence: 0.7, Cost: 0.2}})
	in := core.MustHomogeneous(bins, 10, 0.9)
	p, err := Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(in); err != nil {
		t.Fatalf("infeasible: %v", err)
	}
	// w = -ln(0.3) = 1.204, θ = 2.303 → each task needs 2 assignments.
	// 10 tasks × 2 / 4 per bin = 5 bins minimum.
	if p.NumUses() < 5 {
		t.Errorf("NumUses = %d, expected at least 5", p.NumUses())
	}
}

func TestBinLargerThanTaskCount(t *testing.T) {
	bins := core.MustBinSet([]core.TaskBin{{Cardinality: 50, Confidence: 0.8, Cost: 0.5}})
	in := core.MustHomogeneous(bins, 3, 0.9)
	p, err := Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(in); err != nil {
		t.Fatalf("infeasible: %v", err)
	}
}

func TestHeterogeneousThresholds(t *testing.T) {
	in := core.MustHeterogeneous(table1(), []float64{0.5, 0.6, 0.7, 0.86})
	for name, solve := range map[string]func(*core.Instance) (*core.Plan, error){
		"Solve": Solve, "SolveNaive": SolveNaive,
	} {
		t.Run(name, func(t *testing.T) {
			p, err := solve(in)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Validate(in); err != nil {
				t.Fatalf("infeasible plan: %v", err)
			}
		})
	}
}

// TestSolveMatchesNaive cross-checks the group-compressed implementation
// against the literal Algorithm 1 on randomized instances: total cost and
// the per-cardinality use counts must coincide (task placement may differ
// among equal-residual tasks, which does not affect cost).
func TestSolveMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		bins := randomMenu(rng)
		n := 1 + rng.Intn(40)
		var in *core.Instance
		if trial%2 == 0 {
			in = core.MustHomogeneous(bins, n, 0.85+0.14*rng.Float64())
		} else {
			th := make([]float64, n)
			for i := range th {
				th[i] = 0.5 + 0.45*rng.Float64()
			}
			in = core.MustHeterogeneous(bins, th)
		}
		fast, err := Solve(in)
		if err != nil {
			t.Fatalf("trial %d: Solve: %v", trial, err)
		}
		slow, err := SolveNaive(in)
		if err != nil {
			t.Fatalf("trial %d: SolveNaive: %v", trial, err)
		}
		if err := fast.Validate(in); err != nil {
			t.Fatalf("trial %d: Solve infeasible: %v", trial, err)
		}
		if err := slow.Validate(in); err != nil {
			t.Fatalf("trial %d: SolveNaive infeasible: %v", trial, err)
		}
		cf, cs := fast.MustCost(in.Bins()), slow.MustCost(in.Bins())
		if math.Abs(cf-cs) > 1e-6 {
			t.Errorf("trial %d: cost mismatch fast=%v naive=%v (n=%d)", trial, cf, cs, n)
		}
	}
}

// randomMenu generates a small random bin menu with confidence and per-task
// cost both decreasing in cardinality, as observed in Section 2.
func randomMenu(rng *rand.Rand) core.BinSet {
	m := 1 + rng.Intn(6)
	bins := make([]core.TaskBin, 0, m)
	conf := 0.90 + 0.08*rng.Float64()
	cost := 0.08 + 0.04*rng.Float64()
	for l := 1; l <= m; l++ {
		bins = append(bins, core.TaskBin{Cardinality: l, Confidence: conf, Cost: cost})
		conf -= 0.02 + 0.03*rng.Float64()
		if conf < 0.55 {
			conf = 0.55
		}
		cost += cost * (0.5 + 0.3*rng.Float64()) / float64(l)
	}
	return core.MustBinSet(bins)
}

// TestPlanAlwaysFeasible is a property test: for random menus, sizes and
// thresholds, Greedy always returns a plan that validates.
func TestPlanAlwaysFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 120; trial++ {
		bins := randomMenu(rng)
		n := rng.Intn(200)
		th := make([]float64, n)
		for i := range th {
			th[i] = rng.Float64() * 0.99
		}
		in := core.MustHeterogeneous(bins, th)
		p, err := Solve(in)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := p.Validate(in); err != nil {
			t.Fatalf("trial %d: infeasible: %v", trial, err)
		}
	}
}

func TestSolverInterface(t *testing.T) {
	var s core.Solver = Solver{}
	if s.Name() != "Greedy" {
		t.Errorf("Name = %q", s.Name())
	}
	in := core.MustHomogeneous(table1(), 4, 0.95)
	p, err := s.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(in); err != nil {
		t.Fatal(err)
	}
}

// TestCostWithinLogNOfLowerBound sanity-checks that greedy's cost does not
// explode relative to the fractional covering lower bound on realistic
// menus (the paper's evaluation shows it stays close in practice).
func TestCostWithinLogNOfLowerBound(t *testing.T) {
	in := core.MustHomogeneous(table1(), 1000, 0.9)
	p, err := Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	cost := p.MustCost(in.Bins())
	lb := core.LowerBoundLP(in)
	ratio := cost / lb
	if ratio > math.Log2(float64(in.N()))+1 {
		t.Errorf("greedy cost %v vs LP bound %v: ratio %v too large", cost, lb, ratio)
	}
}
