package core_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/binset"
	"repro/internal/core"
	"repro/internal/opq"
)

// The plan families FuzzPlanCostExact draws from.
const (
	costJelly   = iota // the Jelly menu's OPQ plan: seed picks |B|, n the tasks, x the threshold
	costSMIC           // the same over the SMIC menu
	costOneBin         // one bin of cost x in a run of n one-use blocks
	costOneOver        // seeded runs over a menu of costs 1/k
	costDyadic         // seeded runs over a menu of costs m·2^-j, where sums tie
	costRandom         // seeded runs over a menu of random costs
	costTie            // per block two uses of cost 1 and one of cost x, over n blocks
	costFamilies
)

// naiveCost is the plain left-to-right float sum of c_|β| over the plan's
// uses in expansion order — one add per use — that Plan.Cost must equal
// bit for bit.
func naiveCost(t testing.TB, p *core.Plan, bins core.BinSet) float64 {
	t.Helper()
	total := 0.0
	for _, r := range p.Runs {
		blocks := max(r.Blocks, 1) // a padded run pays one full block
		for b := 0; b < blocks; b++ {
			for _, part := range r.Comb.Parts {
				bin, ok := bins.ByCardinality(part.Cardinality)
				if !ok {
					t.Fatalf("plan uses cardinality %d outside the menu", part.Cardinality)
				}
				for u := part.Count * (r.Comb.BlockLen / part.Cardinality); u > 0; u-- {
					total += bin.Cost
				}
			}
		}
	}
	return total
}

// maxTasks is the service's bound on the tasks of one request.
const maxTasks = 1 << 24

// solvedQueues caches one OPQ per (menu, threshold) across fuzz inputs.
var solvedQueues = map[[3]float64]*opq.Queue{}

// costCase builds the menu and plan of one FuzzPlanCostExact input, or
// reports false for an input outside the family's domain.
func costCase(t testing.TB, family uint8, seed int64, n uint32, x float64) (core.BinSet, *core.Plan, bool) {
	t.Helper()
	family %= costFamilies
	switch family {
	case costJelly, costSMIC:
		if !(x > 0 && x <= 0.999) {
			return core.BinSet{}, nil, false
		}
		maxCard := 1 + int(uint64(seed)%20)
		bins := binset.MustJelly(maxCard)
		if family == costSMIC {
			bins = binset.MustSMIC(maxCard)
		}
		key := [3]float64{float64(family), float64(maxCard), x}
		q := solvedQueues[key]
		if q == nil {
			var err error
			if q, err = opq.Build(bins, x); err != nil {
				t.Fatal(err)
			}
			solvedQueues[key] = q
		}
		plan, err := opq.SolveRunsRange(q, 0, int(n%(maxTasks-2)))
		if err != nil {
			t.Fatal(err)
		}
		return bins, plan, true
	case costOneBin:
		if !(x > 0) {
			return core.BinSet{}, nil, false
		}
		bins := core.MustBinSet([]core.TaskBin{{Cardinality: 1, Confidence: 0.9, Cost: x}})
		blocks := int(n % 1_000_001)
		comb := &core.RunComb{Parts: []core.RunPart{{Cardinality: 1, Count: 1}}, BlockLen: 1}
		return bins, &core.Plan{N: blocks, Runs: []core.BlockRun{{Comb: comb, Blocks: blocks, Len: blocks}}}, blocks > 0
	case costTie:
		if !(x > 0 && x <= 1) {
			return core.BinSet{}, nil, false
		}
		bins := core.MustBinSet([]core.TaskBin{
			{Cardinality: 1, Confidence: 0.9, Cost: 1},
			{Cardinality: 2, Confidence: 0.8, Cost: x},
		})
		blocks := int(n % 1_000_001)
		comb := &core.RunComb{Parts: []core.RunPart{{Cardinality: 1, Count: 1}, {Cardinality: 2, Count: 1}}, BlockLen: 2}
		return bins, &core.Plan{N: 2 * blocks, Runs: []core.BlockRun{{Comb: comb, Blocks: blocks, Len: 2 * blocks}}}, blocks > 0
	}
	rng := rand.New(rand.NewSource(seed))
	cards := rng.Perm(8)[:1+rng.Intn(8)] // from 1..8, so a block is at most lcm(1..8) = 840 tasks
	bins := make([]core.TaskBin, len(cards))
	for i, c := range cards {
		cost := 0.01 + rng.Float64()
		switch family {
		case costOneOver:
			cost = 1 / float64(1+rng.Intn(64))
		case costDyadic:
			cost = math.Ldexp(float64(1+2*rng.Intn(4)), -rng.Intn(60))
		}
		bins[i] = core.TaskBin{Cardinality: c + 1, Confidence: 0.5, Cost: cost}
	}
	menu := core.MustBinSet(bins)
	plan := &core.Plan{}
	maxBlocks, budget := int(n%1_000_001), 4_000_000 // uses the naive sum may add
	for range 1 + rng.Intn(8) {
		comb := &core.RunComb{BlockLen: 1}
		for i := range menu.Len() {
			if rng.Intn(2) == 0 {
				continue
			}
			card := menu.At(i).Cardinality
			comb.Parts = append(comb.Parts, core.RunPart{Cardinality: card, Count: 1 + rng.Intn(3)})
			comb.BlockLen = comb.BlockLen / gcd(comb.BlockLen, card) * card
		}
		per := comb.UsesPerBlock()
		run := core.BlockRun{Comb: comb, Off: plan.N}
		if run.Blocks = rng.Intn(maxBlocks + 1); per > 0 {
			run.Blocks = min(run.Blocks, max(budget, 0)/per)
		}
		if run.Blocks == 0 && comb.BlockLen == 1 {
			run.Blocks = 1 // a one-task block has no padded form
		}
		if run.Len = run.Blocks * comb.BlockLen; run.Blocks == 0 {
			run.Len = 1 + rng.Intn(comb.BlockLen-1)
		}
		budget -= max(run.Blocks, 1) * per
		plan.Runs = append(plan.Runs, run)
		plan.N += run.Len
	}
	return menu, plan, true
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// FuzzPlanCostExact holds Plan.Cost, which adds whole blocks at once where
// it can prove the rounding, to the plain per-use float sum bit for bit —
// on OPQ plans over the paper's menus and on seeded runs whose costs sit
// on the rounding's edges.
func FuzzPlanCostExact(f *testing.F) {
	// 15 × 1/15 is 1 − 2^-53: the sum's top unit in its binade, where the
	// room left for a jump is −1 (a uint64 room wraps to 2^64 − 1).
	f.Add(uint8(costOneBin), int64(0), uint32(40), 1.0/15)
	f.Add(uint8(costOneBin), int64(0), uint32(1_000_000), 0.1)
	f.Add(uint8(costOneBin), int64(0), uint32(1_000_000), 1.0/3)
	f.Add(uint8(costOneBin), int64(0), uint32(1_000_000), 0.375)
	// Dyadic ties: the cost-x use lands on half an ulp of the sum once it
	// passes 2^20 (x = 2^-33), and in a later binade for the others.
	for _, x := range []float64{0x1p-33, 0x1p-32, 0x3p-34, 0x1p-40} {
		f.Add(uint8(costTie), int64(0), uint32(1_000_000), x)
	}
	for seed := range int64(8) {
		for _, fam := range []uint8{costOneOver, costDyadic, costRandom} {
			f.Add(fam, seed, uint32(1_000_000>>(2*seed)), 0.0)
		}
	}
	for k := 2; k <= 64; k *= 2 {
		f.Add(uint8(costOneBin), int64(0), uint32(300_001), 1/float64(k-1))
	}
	// OPQ plans over the full Jelly and SMIC menus, n = 1 to 2^24 − 3,
	// over a threshold sweep.
	for _, fam := range []uint8{costJelly, costSMIC} {
		for _, n := range []uint32{1, 2, 3, 97, 10_000, 1_000_003, maxTasks - 3} {
			for _, th := range []float64{0.5, 0.8, 0.9, 0.95, 0.99} {
				f.Add(fam, int64(19), n, th)
			}
		}
	}
	f.Fuzz(func(t *testing.T, family uint8, seed int64, n uint32, x float64) {
		bins, plan, ok := costCase(t, family, seed, n, x)
		if !ok {
			return
		}
		got, err := plan.Cost(bins)
		if err != nil {
			t.Fatal(err)
		}
		if want := naiveCost(t, plan, bins); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Cost %v (%#x), per-use sum %v (%#x)", got, math.Float64bits(got), want, math.Float64bits(want))
		}
	})
}

// TestPlanCostAllocBudget is the clock-free gate on Plan.Cost: the part
// costs of a run sit in a stack array, so a plan's cost allocates nothing.
func TestPlanCostAllocBudget(t *testing.T) {
	bins := binset.MustJelly(20)
	q, err := opq.Build(bins, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := opq.SolveRunsRange(q, 0, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := plan.Cost(bins); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Plan.Cost, Jelly-20 at t = 0.9, n = 10^6: %.0f allocs/op", allocs)
	if allocs != 0 {
		t.Errorf("Plan.Cost: %.0f allocs/op, want 0", allocs)
	}
}
