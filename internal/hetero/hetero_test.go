package hetero

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/greedy"
)

func table1() core.BinSet {
	return core.MustBinSet([]core.TaskBin{
		{Cardinality: 1, Confidence: 0.90, Cost: 0.10},
		{Cardinality: 2, Confidence: 0.85, Cost: 0.18},
		{Cardinality: 3, Confidence: 0.80, Cost: 0.24},
	})
}

// example10 is the running example of Section 6: four tasks with thresholds
// 0.5, 0.6, 0.7 and 0.86 over the Table-1 menu.
func example10() *core.Instance {
	return core.MustHeterogeneous(table1(), []float64{0.5, 0.6, 0.7, 0.86})
}

// TestExample10QueueSet reproduces Example 10: α = -1, two queues with
// τ0 = 1 (t = 0.632) and τ1 = θmax ≈ 1.966 (t ≈ 0.86), and the partition
// S0 = {a1, a2}, S1 = {a3, a4}.
func TestExample10QueueSet(t *testing.T) {
	set, err := BuildSet(example10())
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Partitions) != 2 {
		t.Fatalf("got %d partitions, want 2", len(set.Partitions))
	}
	p0, p1 := set.Partitions[0], set.Partitions[1]
	if math.Abs(p0.Tau-1.0) > 1e-12 {
		t.Errorf("τ0 = %v, want 1", p0.Tau)
	}
	if math.Abs(core.ThresholdFromTheta(p0.Tau)-0.632) > 1e-3 {
		t.Errorf("t0 = %v, want 0.632", core.ThresholdFromTheta(p0.Tau))
	}
	if math.Abs(p1.Tau-core.Theta(0.86)) > 1e-12 {
		t.Errorf("τ1 = %v, want θmax = %v", p1.Tau, core.Theta(0.86))
	}
	if len(p0.Tasks) != 2 || p0.Tasks[0] != 0 || p0.Tasks[1] != 1 {
		t.Errorf("S0 = %v, want [0 1]", p0.Tasks)
	}
	if len(p1.Tasks) != 2 || p1.Tasks[0] != 2 || p1.Tasks[1] != 3 {
		t.Errorf("S1 = %v, want [2 3]", p1.Tasks)
	}
	// Table 4 / Table 5 queue shapes.
	if len(p0.Queue.Elems) != 3 {
		t.Errorf("OPQ0 has %d elements, want 3", len(p0.Queue.Elems))
	}
	if len(p1.Queue.Elems) != 1 || p1.Queue.Elems[0].String() != "{1×b1}" {
		t.Errorf("OPQ1 = %v, want single {1×b1}", p1.Queue.Elems)
	}
}

// TestExample11Plan reproduces Example 11: the global plan is
// {{a1,a2}, {a3}, {a4}} with total cost 0.38.
func TestExample11Plan(t *testing.T) {
	in := example10()
	p, err := Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(in); err != nil {
		t.Fatalf("infeasible: %v", err)
	}
	cost := p.MustCost(in.Bins())
	if math.Abs(cost-0.38) > 1e-9 {
		t.Errorf("cost = %v, want 0.38", cost)
	}
	sum, err := p.Summarize(in.Bins())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sum.String(), "2×b1 + 1×b2 = $0.3800"; got != want {
		t.Errorf("plan %s, want %s", got, want)
	}
}

func TestHomogeneousInstance(t *testing.T) {
	// OPQ-Extended on a homogeneous instance must still produce a feasible
	// plan (single partition).
	in := core.MustHomogeneous(table1(), 10, 0.95)
	p, err := Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(in); err != nil {
		t.Fatalf("infeasible: %v", err)
	}
}

func TestPowerOfTwoEdge(t *testing.T) {
	// θ exactly a power of two for every task: the paper's loop guard
	// 2^{α+i} < θmax would never fire; we must still emit one interval.
	tt := core.ThresholdFromTheta(1.0) // θ = 1 = 2^0
	in := core.MustHomogeneous(table1(), 5, tt)
	set, err := BuildSet(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Partitions) == 0 {
		t.Fatal("no partitions for power-of-two θ")
	}
	p, err := Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(in); err != nil {
		t.Fatalf("infeasible: %v", err)
	}
}

func TestZeroThresholdTasksSkipped(t *testing.T) {
	in := core.MustHeterogeneous(table1(), []float64{0, 0.9, 0, 0.5})
	p, err := Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(in); err != nil {
		t.Fatalf("infeasible: %v", err)
	}
	// Tasks 0 and 2 need no coverage; ensure no bin contains them.
	for _, u := range p.Materialized() {
		for _, task := range u.Tasks {
			if task == 0 || task == 2 {
				t.Errorf("zero-threshold task %d was assigned", task)
			}
		}
	}
}

func TestAllZeroThresholds(t *testing.T) {
	for name, ths := range map[string][]float64{"all-zero": {0, 0, 0}, "empty": nil} {
		p, err := Solve(core.MustHeterogeneous(table1(), ths))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.NumUses() != 0 {
			t.Errorf("%s instance needs no bins, got %d uses", name, p.NumUses())
		}
	}
}

func TestEmptyMenuRejected(t *testing.T) {
	in := core.MustHeterogeneous(core.BinSet{}, nil)
	if _, err := BuildSet(in); err == nil {
		t.Error("BuildSet accepted an empty menu")
	}
}

// TestFeasibilityRandom is a property test: OPQ-Extended plans always
// validate on random heterogeneous instances, across wide threshold spreads.
func TestFeasibilityRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 80; trial++ {
		bins := randomMenu(rng)
		n := 1 + rng.Intn(120)
		th := make([]float64, n)
		for i := range th {
			// Spread thresholds widely, from nearly 0 to 0.99, to force
			// multiple partitions.
			th[i] = 0.01 + 0.98*rng.Float64()
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

// TestTheorem3Bound checks the OPQ-Extended cost against the Theorem-3
// guarantee relative to the fractional covering lower bound.
func TestTheorem3Bound(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := 50 + rng.Intn(200)
		th := make([]float64, n)
		for i := range th {
			th[i] = 0.5 + 0.49*rng.Float64()
		}
		in := core.MustHeterogeneous(table1(), th)
		p, err := Solve(in)
		if err != nil {
			t.Fatal(err)
		}
		cost := p.MustCost(in.Bins())
		lb := core.LowerBoundLP(in)
		if bound := ApproxRatioBound(in); cost > bound*lb+1e-9 {
			t.Errorf("trial %d: cost %v exceeds bound %v × LP %v", trial, cost, bound, lb)
		}
	}
}

// TestComparableToGreedy sanity-checks that OPQ-Extended is in the same cost
// ballpark as Greedy on heterogeneous workloads (the paper finds it usually
// cheaper; we allow a generous margin to keep the test robust).
func TestComparableToGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 1000
	th := make([]float64, n)
	for i := range th {
		th[i] = clamp(0.9+0.03*rng.NormFloat64(), 0.5, 0.995)
	}
	in := core.MustHeterogeneous(table1(), th)
	pe, err := Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	pg, err := greedy.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	ce, cg := pe.MustCost(in.Bins()), pg.MustCost(in.Bins())
	if ce > 1.5*cg {
		t.Errorf("OPQ-Extended cost %v is far above Greedy %v", ce, cg)
	}
}

func TestApproxRatioBoundEdges(t *testing.T) {
	if got := ApproxRatioBound(core.MustHeterogeneous(table1(), nil)); got != 1 {
		t.Errorf("bound(empty) = %v, want 1", got)
	}
	in := core.MustHeterogeneous(table1(), []float64{0, 0})
	if got := ApproxRatioBound(in); got != 1 {
		t.Errorf("bound(all-zero) = %v, want 1", got)
	}
}

func TestSolverInterface(t *testing.T) {
	var s core.Solver = Solver{}
	if s.Name() != "OPQ-Extended" {
		t.Errorf("Name = %q", s.Name())
	}
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

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
