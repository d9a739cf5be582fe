package opq

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/binset"
	"repro/internal/core"
)

func table1() core.BinSet {
	return core.MustBinSet([]core.TaskBin{
		{Cardinality: 1, Confidence: 0.90, Cost: 0.10},
		{Cardinality: 2, Confidence: 0.85, Cost: 0.18},
		{Cardinality: 3, Confidence: 0.80, Cost: 0.24},
	})
}

// TestTable3OPQ reproduces Table 3: the OPQ of the Table-1 menu at t = 0.95
// is {2×b3} (UC .16, LCM 3), {2×b2} (UC .18, LCM 2), {2×b1} (UC .2, LCM 1).
func TestTable3OPQ(t *testing.T) {
	q, err := Build(table1(), 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(q.Elems) != 3 {
		t.Fatalf("queue has %d elements, want 3: %v", len(q.Elems), q.Elems)
	}
	want := []struct {
		str string
		uc  float64
		lcm int64
	}{
		{"{2×b3}", 0.16, 3},
		{"{2×b2}", 0.18, 2},
		{"{2×b1}", 0.20, 1},
	}
	for i, w := range want {
		e := q.Elems[i]
		if e.String() != w.str {
			t.Errorf("OPQ%d = %s, want %s", i+1, e.String(), w.str)
		}
		if math.Abs(e.UC-w.uc) > 1e-9 {
			t.Errorf("OPQ%d.UC = %v, want %v", i+1, e.UC, w.uc)
		}
		if e.LCM != w.lcm {
			t.Errorf("OPQ%d.LCM = %d, want %d", i+1, e.LCM, w.lcm)
		}
	}
}

// TestTable4OPQ reproduces Table 4: the OPQ at t = 0.632 is {1×b3}/.08/3,
// {1×b2}/.09/2, {1×b1}/.1/1.
func TestTable4OPQ(t *testing.T) {
	q, err := Build(table1(), 0.632)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Elems) != 3 {
		t.Fatalf("queue has %d elements, want 3: %v", len(q.Elems), q.Elems)
	}
	want := []struct {
		str string
		uc  float64
		lcm int64
	}{
		{"{1×b3}", 0.08, 3},
		{"{1×b2}", 0.09, 2},
		{"{1×b1}", 0.10, 1},
	}
	for i, w := range want {
		e := q.Elems[i]
		if e.String() != w.str || math.Abs(e.UC-w.uc) > 1e-9 || e.LCM != w.lcm {
			t.Errorf("OPQ%d = %s/%v/%d, want %s/%v/%d",
				i+1, e.String(), e.UC, e.LCM, w.str, w.uc, w.lcm)
		}
	}
}

// TestTable5OPQ reproduces Table 5: at t = 0.86 only {1×b1} survives —
// single assignments to b2/b3 are infeasible and every multi-bin
// combination is dominated by {1×b1}.
func TestTable5OPQ(t *testing.T) {
	q, err := Build(table1(), 0.86)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Elems) != 1 {
		t.Fatalf("queue has %d elements, want 1: %v", len(q.Elems), q.Elems)
	}
	e := q.Elems[0]
	if e.String() != "{1×b1}" || math.Abs(e.UC-0.10) > 1e-9 || e.LCM != 1 {
		t.Errorf("OPQ1 = %s/%v/%d, want {1×b1}/0.1/1", e.String(), e.UC, e.LCM)
	}
}

// TestExample9 reproduces Example 9: OPQ-Based on 4 tasks at t = 0.95
// assigns {a1,a2,a3} twice via b3 and {a4} twice via b1, total cost 0.68.
func TestExample9(t *testing.T) {
	in := core.MustHomogeneous(table1(), 4, 0.95)
	p, err := (Solver{}).Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(in); err != nil {
		t.Fatalf("infeasible: %v", err)
	}
	cost := p.MustCost(in.Bins())
	if math.Abs(cost-0.68) > 1e-9 {
		t.Errorf("cost = %v, want 0.68", cost)
	}
	sum, err := p.Summarize(in.Bins())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sum.String(), "2×b1 + 2×b3 = $0.6800"; got != want {
		t.Errorf("plan %s, want %s", got, want)
	}
}

func TestBuildRejectsBadInput(t *testing.T) {
	if _, err := Build(core.BinSet{}, 0.9); err == nil {
		t.Error("Build accepted empty menu")
	}
	if _, err := Build(table1(), 1.0); err == nil {
		t.Error("Build accepted t = 1")
	}
	if _, err := Build(table1(), -0.1); err == nil {
		t.Error("Build accepted t < 0")
	}
}

func TestBuildBudgetExceeded(t *testing.T) {
	if _, err := BuildBudget(table1(), 0.95, 2); err == nil {
		t.Error("BuildBudget(2) should fail")
	}
}

func TestSolveHeterogeneousRejected(t *testing.T) {
	in := core.MustHeterogeneous(table1(), []float64{0.5, 0.9})
	if _, err := (Solver{}).Solve(in); err == nil {
		t.Error("OPQ solver accepted a heterogeneous instance")
	}
}

func TestSolveEmptyInstance(t *testing.T) {
	in := core.MustHomogeneous(table1(), 0, 0.9)
	p, err := (Solver{}).Solve(in)
	if err != nil || p.NumUses() != 0 {
		t.Errorf("Solve(empty) = %v, %v", p, err)
	}
}

func TestSolveZeroThreshold(t *testing.T) {
	in := core.MustHomogeneous(table1(), 7, 0)
	p, err := (Solver{}).Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumUses() != 0 {
		t.Errorf("t=0 should need no bins, got %d uses", p.NumUses())
	}
}

// TestCorollary1 verifies that when n is a multiple of OPQ1.LCM the cost is
// exactly n × OPQ1.UC (Corollary 1: the solution is optimal).
func TestCorollary1(t *testing.T) {
	q, err := Build(table1(), 0.95)
	if err != nil {
		t.Fatal(err)
	}
	lcm1 := int(q.Elems[0].LCM)
	for _, mult := range []int{1, 2, 5, 100} {
		n := mult * lcm1
		tasks := seq(n)
		p, err := SolveRuns(q, tasks)
		if err != nil {
			t.Fatal(err)
		}
		in := core.MustHomogeneous(table1(), n, 0.95)
		if err := p.Validate(in); err != nil {
			t.Fatalf("n=%d infeasible: %v", n, err)
		}
		got := p.MustCost(table1())
		want := float64(n) * q.Elems[0].UC
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("n=%d: cost = %v, want n×UC1 = %v", n, got, want)
		}
	}
}

// TestPlanCostMatchesSolve checks that the analytic PlanCost agrees with the
// cost of the materialized plan for a range of task counts, including ones
// that exercise the remainder and padding paths.
func TestPlanCostMatchesSolve(t *testing.T) {
	q, err := Build(table1(), 0.95)
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= 30; n++ {
		p, err := SolveRuns(q, seq(n))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		want := p.MustCost(table1())
		got, err := PlanCost(q, n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("n=%d: PlanCost = %v, plan cost = %v", n, got, want)
		}
	}
}

// TestPaddingPath exercises the padded-remainder branch with a menu that has
// no 1-cardinality bin, so small remainders force over-provisioned blocks.
func TestPaddingPath(t *testing.T) {
	bins := core.MustBinSet([]core.TaskBin{
		{Cardinality: 2, Confidence: 0.85, Cost: 0.18},
		{Cardinality: 3, Confidence: 0.80, Cost: 0.24},
	})
	for n := 1; n <= 13; n++ {
		in := core.MustHomogeneous(bins, n, 0.95)
		p, err := (Solver{}).Solve(in)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := p.Validate(in); err != nil {
			t.Fatalf("n=%d infeasible: %v", n, err)
		}
	}
}

// TestTinyInstanceSmallerThanEveryBlock covers n smaller than every LCM in
// the queue (fallback path with prev == nil).
func TestTinyInstanceSmallerThanEveryBlock(t *testing.T) {
	bins := core.MustBinSet([]core.TaskBin{
		{Cardinality: 4, Confidence: 0.8, Cost: 0.3},
		{Cardinality: 6, Confidence: 0.75, Cost: 0.36},
	})
	in := core.MustHomogeneous(bins, 3, 0.9)
	p, err := (Solver{}).Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(in); err != nil {
		t.Fatalf("infeasible: %v", err)
	}
}

// TestQueueInvariantsRandom is a property test: for random menus and
// thresholds the built queue always satisfies the Definition-4 invariants,
// and OPQ-Based plans always validate.
func TestQueueInvariantsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 80; trial++ {
		bins := randomMenu(rng)
		th := 0.5 + 0.49*rng.Float64()
		q, err := Build(bins, th)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := q.Validate(); err != nil {
			t.Fatalf("trial %d: invalid queue: %v", trial, err)
		}
		n := 1 + rng.Intn(60)
		in := core.MustHomogeneous(bins, n, th)
		p, err := SolveRuns(q, seq(n))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := p.Validate(in); err != nil {
			t.Fatalf("trial %d (n=%d, t=%v): infeasible: %v", trial, n, th, err)
		}
	}
}

// TestTheorem2Bound checks cost ≤ (log2 n + 1) × n × OPQ1.UC, the chain of
// inequalities in the proof of Theorem 2 (n × OPQ1.UC lower-bounds OPT).
func TestTheorem2Bound(t *testing.T) {
	q, err := Build(table1(), 0.95)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 3, 5, 17, 100, 999, 10000} {
		cost, err := PlanCost(q, n)
		if err != nil {
			t.Fatal(err)
		}
		bound := (ApproxRatioBound(n) + 1) * float64(n) * q.Elems[0].UC
		if cost > bound+1e-9 {
			t.Errorf("n=%d: cost %v exceeds Theorem-2 bound %v", n, cost, bound)
		}
	}
}

// TestOPQBeatsGreedyOnExample asserts the paper's Example 9 comparison: the
// OPQ-Based cost (0.68) undercuts Greedy's (0.74) on the running example.
func TestOPQBeatsGreedyOnExample(t *testing.T) {
	q, err := Build(table1(), 0.95)
	if err != nil {
		t.Fatal(err)
	}
	cost, err := PlanCost(q, 4)
	if err != nil {
		t.Fatal(err)
	}
	if cost >= 0.74 {
		t.Errorf("OPQ cost %v should beat Greedy's 0.74", cost)
	}
}

func TestCombString(t *testing.T) {
	q, err := Build(table1(), 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if got := q.Elems[0].String(); got != "{2×b3}" {
		t.Errorf("String = %q, want {2×b3}", got)
	}
	uses := combUses(&q.Elems[0])
	if len(uses) != 1 || uses[3] != 2 {
		t.Errorf("Uses = %v, want map[3:2]", uses)
	}
}

// checkCutsPreserveQueue builds the queue with the two cuts on and with the
// exhaustive reference enumeration and requires them to agree exactly: same
// elements, same counts, same bits of UC and Mass, same wire form. Inputs
// whose reference enumeration does not fit refBudget are skipped.
func checkCutsPreserveQueue(t *testing.T, bins core.BinSet, th float64, refBudget int) {
	t.Helper()
	qOff, statsOff, errOff := BuildInstrumented(bins, th, refBudget, false)
	if errOff != nil && statsOff.NodesVisited > refBudget {
		t.Skipf("reference enumeration exceeds %d nodes", refBudget)
	}
	qOn, statsOn, errOn := BuildInstrumented(bins, th, refBudget, true)
	if errOn != nil || errOff != nil {
		if errOn == nil || errOff == nil {
			t.Fatalf("cuts on: %v; cuts off: %v", errOn, errOff)
		}
		return
	}
	if err := qOn.Validate(); err != nil {
		t.Fatal(err)
	}
	if statsOff.NodesVisited < statsOn.NodesVisited {
		t.Errorf("cuts visited more nodes (%d) than no cuts (%d)", statsOn.NodesVisited, statsOff.NodesVisited)
	}
	if statsOff.Lemma1Cuts != 0 || statsOff.BoundCuts != 0 {
		t.Errorf("reference enumeration cut: %+v", statsOff)
	}
	if len(qOn.Elems) != len(qOff.Elems) {
		t.Fatalf("frontier sizes differ: %d vs %d", len(qOn.Elems), len(qOff.Elems))
	}
	for i := range qOn.Elems {
		a, b := qOn.Elems[i], qOff.Elems[i]
		if a.LCM != b.LCM || !slices.Equal(a.counts, b.counts) ||
			math.Float64bits(a.UC) != math.Float64bits(b.UC) ||
			math.Float64bits(a.Mass) != math.Float64bits(b.Mass) {
			t.Errorf("element %d differs: %v vs %v", i, a, b)
		}
	}
}

// cutSeeds are tieMenu inputs (three bytes per bin, then the threshold as a
// fraction of [0.5, 0.9999]) that TestPruningPreservesQueue checks and
// FuzzBuildCutsPreserveQueue starts from: exact UC ties between single bins,
// between sums, a lone bin, a deep threshold over weak bins.
var cutSeeds = []struct {
	data []byte
	t    uint16
}{
	{[]byte{0, 200, 3, 1, 180, 3, 2, 160, 3}, 58000},
	{[]byte{0, 255, 7, 1, 230, 5, 3, 200, 3, 5, 170, 2, 11, 140, 1, 23, 100, 0}, 65535},
	{[]byte{4, 90, 1}, 40000},
	{[]byte{1, 10, 0, 2, 10, 0, 5, 10, 0, 7, 10, 0}, 65000},
	{[]byte{0, 128, 1, 1, 128, 1, 2, 128, 1, 3, 128, 1, 4, 128, 1, 5, 128, 1, 6, 128, 1, 7, 128, 1, 8, 128, 1, 9, 128, 1}, 62000},
}

func cutSeedThreshold(raw uint16) float64 { return 0.5 + 0.4999*float64(raw)/65535 }

// TestPruningPreservesQueue verifies the ablation switch: disabling the
// mid-enumeration cuts must produce exactly the same frontier, only visiting
// more nodes.
func TestPruningPreservesQueue(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 30; trial++ {
		bins := randomMenu(rng)
		th := 0.5 + 0.49*rng.Float64()
		t.Run(fmt.Sprintf("random%d", trial), func(t *testing.T) {
			checkCutsPreserveQueue(t, bins, th, DefaultNodeBudget)
		})
	}
	for i, s := range cutSeeds {
		bins, ok := tieMenu(s.data)
		if !ok {
			t.Fatalf("seed %d decodes to no menu", i)
		}
		t.Run(fmt.Sprintf("seed%d", i), func(t *testing.T) {
			checkCutsPreserveQueue(t, bins, cutSeedThreshold(s.t), DefaultNodeBudget)
		})
	}
}

// FuzzBuildCutsPreserveQueue is TestPruningPreservesQueue over fuzzed menus
// of 1-10 bins with cardinalities ≤ 24, costs that force UC ties and
// thresholds in [0.5, 0.9999].
func FuzzBuildCutsPreserveQueue(f *testing.F) {
	for _, s := range cutSeeds {
		f.Add(s.data, s.t)
	}
	f.Fuzz(func(t *testing.T, data []byte, rawT uint16) {
		bins, ok := tieMenu(data)
		if !ok {
			t.Skip("no bins")
		}
		checkCutsPreserveQueue(t, bins, cutSeedThreshold(rawT), 2_000_000)
	})
}

// TestBuildDeepThreshold pins a build that used to run out of budget: SMIC-30
// at t = 0.9999 needed 9,455,928 nodes with Lemma 1 alone and failed at
// DefaultNodeBudget; with the cost bound it fits, and equals the exhaustive
// enumeration's queue.
func TestBuildDeepThreshold(t *testing.T) {
	if testing.Short() {
		t.Skip("the exhaustive reference enumeration takes seconds")
	}
	checkCutsPreserveQueue(t, binset.MustSMIC(30), 0.9999, 100_000_000)
	if _, stats, err := BuildInstrumented(binset.MustSMIC(30), 0.9999, DefaultNodeBudget, true); err != nil {
		t.Fatalf("does not fit DefaultNodeBudget: %v (%+v)", err, stats)
	}
}

// TestBuildRejectsUnreachableDepth: a menu whose weakest bin needs more than
// maxAssignments uses to meet the threshold would recurse one frame per use
// (23 million here — a fatal stack overflow, not a recoverable panic); Build
// refuses it up front.
func TestBuildRejectsUnreachableDepth(t *testing.T) {
	weak := core.MustBinSet([]core.TaskBin{{Cardinality: 1, Confidence: 1e-7, Cost: 0.01}})
	_, stats, err := BuildInstrumented(weak, 0.9, DefaultNodeBudget, true)
	if err == nil {
		t.Fatal("Build accepted a threshold 23 million assignments away")
	}
	if stats.NodesVisited != 0 {
		t.Errorf("enumerated %d nodes before refusing", stats.NodesVisited)
	}
	for _, want := range []string{"0.9", "1e-07", "4096"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
	// One strong bin beside the weak one does not lift the bound: the
	// enumeration would still descend the weak bin's branch first.
	mixed := core.MustBinSet([]core.TaskBin{
		{Cardinality: 1, Confidence: 1e-7, Cost: 0.01},
		{Cardinality: 2, Confidence: 0.9, Cost: 0.1},
	})
	if _, err := Build(mixed, 0.9); err == nil {
		t.Error("Build accepted a menu with an unreachably weak bin")
	}
	// Just inside the bound builds: 4,000 uses of a 0.001-weight bin.
	edge := core.MustBinSet([]core.TaskBin{{Cardinality: 1, Confidence: -math.Expm1(-0.001), Cost: 0.01}})
	q, err := Build(edge, -math.Expm1(-4))
	if err != nil {
		t.Fatal(err)
	}
	if n := q.Elems[0].counts[0]; n < 3999 || n > 4001 {
		t.Errorf("edge menu uses its bin %d times, want ~4000", n)
	}
}

// TestBuildAllocBudget is the clock-free gate on Algorithm 2: over the 320
// cold-menu thresholds a SMIC-20 build averages ≤ 128 allocations and
// ≤ 32 KiB (34 and 10.0 KiB measured, the queue's run recipes included; the
// clone-per-node enumeration this replaced made 18,298 and 2,733 KiB);
// BuildPiece allocates exactly what Build does, its second enumeration
// nothing; and a build that dies on its node budget has allocated next to
// nothing on the way.
func TestBuildAllocBudget(t *testing.T) {
	smic20 := binset.MustSMIC(20)
	ts := coldMenuThresholds()
	sweep := func(build func(th float64) error) (mallocs, bytes uint64) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for _, th := range ts {
			if err := build(th); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
	}
	build := func(th float64) error { _, err := Build(smic20, th); return err }
	piece := func(th float64) error { _, _, err := BuildPiece(smic20, th); return err }
	mallocs, bytes := sweep(build)
	allocs := float64(mallocs) / float64(len(ts))
	kib := float64(bytes) / float64(len(ts)) / 1024
	t.Logf("SMIC-20 over %d cold-menu thresholds: %.0f allocs, %.1f KiB per build", len(ts), allocs, kib)
	if allocs > 128 || kib > 32 {
		t.Errorf("build averages %.0f allocs and %.1f KiB, budget 128 and 32", allocs, kib)
	}
	// MemStats are process-wide and another goroutine's allocation only
	// adds (a -race runtime makes a few per sweep), so each side's count is
	// its least over up to ten interleaved sweeps.
	pm, pb := sweep(piece)
	for range 9 {
		if pm == mallocs && pb == bytes {
			break
		}
		m, b := sweep(build)
		mallocs, bytes = min(mallocs, m), min(bytes, b)
		m, b = sweep(piece)
		pm, pb = min(pm, m), min(pb, b)
	}
	if pm != mallocs || pb != bytes {
		t.Errorf("BuildPiece made %d allocations / %d B over the sweep, Build %d / %d B", pm, pb, mallocs, bytes)
	}

	smic30 := binset.MustSMIC(30)
	died := testing.AllocsPerRun(5, func() {
		if _, err := BuildBudget(smic30, 0.9999, 10_000); err == nil {
			t.Fatal("10,000 nodes sufficed for SMIC-30 at 0.9999")
		}
	})
	if died > 64 {
		t.Errorf("a build that exceeds its budget made %.0f allocations, budget 64", died)
	}
}

func TestLCMOverflowGuard(t *testing.T) {
	if _, err := lcm(0, 5); err == nil {
		t.Error("lcm(0,5) should error")
	}
	if _, err := lcm(maxLCM, 3); err == nil {
		t.Error("lcm overflow should error")
	}
	l, err := lcm(4, 6)
	if err != nil || l != 12 {
		t.Errorf("lcm(4,6) = %d, %v", l, err)
	}
}

func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
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
