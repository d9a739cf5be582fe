package opq

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
)

// legacySolve is the pre-run-representation expansion of Algorithm 3,
// kept verbatim as the oracle: per-use allocation, map-based padded-block
// dedup and all. The equivalence tests pin the compact run form (and its
// materialization) byte-identical to what this emitted, use for use.
func legacySolve(q *Queue, tasks []int) ([]core.BinUse, error) {
	if len(q.Elems) == 0 {
		return nil, fmt.Errorf("opq: empty queue")
	}
	if core.Theta(q.Threshold) == 0 {
		return nil, nil
	}
	plan := new([]core.BinUse)
	elems := q.Elems
	prev := (*Comb)(nil)
	fallback := cheapestBlock(q)
	pos := 0
	n := len(tasks)

	for n > 0 {
		for len(elems) > 0 && elems[0].LCM > int64(n) {
			elems = elems[1:]
		}
		if len(elems) == 0 {
			best := prev
			if best == nil {
				best = fallback
			}
			legacyPaddedBlock(plan, best, tasks[pos:])
			n = 0
			break
		}
		e := elems[0]
		k := n / int(e.LCM)
		if prev != nil && float64(k)*e.BlockCost() > prev.BlockCost() {
			legacyPaddedBlock(plan, prev, tasks[pos:])
			n = 0
			break
		}
		for b := 0; b < k; b++ {
			legacyFullBlock(plan, &e, tasks[pos:pos+int(e.LCM)])
			pos += int(e.LCM)
		}
		n -= k * int(e.LCM)
		prev = &e
	}
	return *plan, nil
}

func legacyFullBlock(plan *[]core.BinUse, c *Comb, block []int) {
	for bi, nk := range c.counts {
		if nk == 0 {
			continue
		}
		card := c.bins.At(bi).Cardinality
		for rep := 0; rep < nk; rep++ {
			for start := 0; start < len(block); start += card {
				use := core.BinUse{Cardinality: card}
				use.Tasks = append(use.Tasks, block[start:start+card]...)
				*plan = append(*plan, use)
			}
		}
	}
}

// legacyPaddedBlock is the historical map-based dedup; the production
// expansion now derives the same first-occurrence order with pure index
// arithmetic (consecutive positions modulo the remainder length), and
// these tests prove the two byte-identical.
func legacyPaddedBlock(plan *[]core.BinUse, c *Comb, rem []int) {
	if len(rem) == 0 {
		return
	}
	L := int(c.LCM)
	padded := make([]int, L)
	for i := 0; i < L; i++ {
		padded[i] = rem[i%len(rem)]
	}
	for bi, nk := range c.counts {
		if nk == 0 {
			continue
		}
		card := c.bins.At(bi).Cardinality
		for rep := 0; rep < nk; rep++ {
			for start := 0; start < L; start += card {
				use := core.BinUse{Cardinality: card}
				seen := make(map[int]struct{}, card)
				for _, t := range padded[start : start+card] {
					if _, dup := seen[t]; dup {
						continue
					}
					seen[t] = struct{}{}
					use.Tasks = append(use.Tasks, t)
				}
				*plan = append(*plan, use)
			}
		}
	}
}

// sameUses compares use lists structurally (cardinality and task values,
// not backing identity).
func sameUses(t *testing.T, label string, got, want []core.BinUse) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d uses, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].Cardinality != want[i].Cardinality {
			t.Fatalf("%s: use %d cardinality %d, want %d", label, i, got[i].Cardinality, want[i].Cardinality)
		}
		if len(got[i].Tasks) != len(want[i].Tasks) {
			t.Fatalf("%s: use %d has %d tasks, want %d (%v vs %v)",
				label, i, len(got[i].Tasks), len(want[i].Tasks), got[i].Tasks, want[i].Tasks)
		}
		for j := range want[i].Tasks {
			if got[i].Tasks[j] != want[i].Tasks[j] {
				t.Fatalf("%s: use %d tasks %v, want %v", label, i, got[i].Tasks, want[i].Tasks)
			}
		}
	}
}

// TestRunsEquivalenceRandom is the master equivalence test: for
// randomized menus, thresholds and sizes, the compact run form — streamed
// (EachUse) and materialized (Materialize) — reproduces the historical
// expansion use for use, and every arithmetic aggregate (cost bit-for-bit,
// uses, assignments, per-cardinality counts) agrees with a direct count
// over it.
func TestRunsEquivalenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 120; trial++ {
		bins := randomMenu(rng)
		th := 0.5 + 0.49*rng.Float64()
		q, err := Build(bins, th)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		n := 1 + rng.Intn(80)
		// Arbitrary (non-iota) ids exercise the arena copy.
		tasks := make([]int, n)
		base := rng.Intn(1000)
		for i := range tasks {
			tasks[i] = base + 2*i
		}

		want, err := legacySolve(q, tasks)
		if err != nil {
			t.Fatalf("trial %d: oracle: %v", trial, err)
		}
		pr, err := SolveRuns(q, tasks)
		if err != nil {
			t.Fatalf("trial %d: SolveRuns: %v", trial, err)
		}
		plan := core.NewRunPlan(pr)

		sameUses(t, "Materialize", plan.Materialized(), want)
		var streamed []core.BinUse
		if err := plan.EachUse(func(card int, ts []int) error {
			streamed = append(streamed, core.BinUse{Cardinality: card, Tasks: append([]int(nil), ts...)})
			return nil
		}); err != nil {
			t.Fatalf("trial %d: EachUse: %v", trial, err)
		}
		sameUses(t, "EachUse", streamed, want)

		wantCost, wantAssigns, wantCounts := 0.0, 0, make(map[int]int)
		for _, u := range want {
			b, _ := bins.ByCardinality(u.Cardinality)
			wantCost += b.Cost
			wantAssigns += len(u.Tasks)
			wantCounts[u.Cardinality]++
		}
		if got := plan.MustCost(bins); got != wantCost {
			t.Fatalf("trial %d: run cost %v != per-use sum %v (not bit-identical)", trial, got, wantCost)
		}
		if plan.NumUses() != len(want) {
			t.Fatalf("trial %d: NumUses %d != %d", trial, plan.NumUses(), len(want))
		}
		if plan.NumAssignments() != wantAssigns {
			t.Fatalf("trial %d: NumAssignments %d != %d", trial, plan.NumAssignments(), wantAssigns)
		}
		if !reflect.DeepEqual(plan.Counts(), wantCounts) {
			t.Fatalf("trial %d: Counts %v != %v", trial, plan.Counts(), wantCounts)
		}

		viaPlan, err := SolveWithQueue(q, tasks)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		sameUses(t, "SolveWithQueue", viaPlan.Materialized(), want)
	}
}

// TestPaddedBlockByteIdentical drives menus whose small remainders force
// the padded path (no 1-cardinality bin) and pins the index-arithmetic
// dedup byte-identical to the historical map-based expansion.
func TestPaddedBlockByteIdentical(t *testing.T) {
	bins := core.MustBinSet([]core.TaskBin{
		{Cardinality: 2, Confidence: 0.85, Cost: 0.18},
		{Cardinality: 3, Confidence: 0.80, Cost: 0.24},
		{Cardinality: 5, Confidence: 0.78, Cost: 0.32},
	})
	for _, th := range []float64{0.9, 0.95, 0.99} {
		q, err := Build(bins, th)
		if err != nil {
			t.Fatal(err)
		}
		for n := 1; n <= 35; n++ {
			want, err := legacySolve(q, seq(n))
			if err != nil {
				t.Fatalf("t=%v n=%d: %v", th, n, err)
			}
			pr, err := SolveRuns(q, seq(n))
			if err != nil {
				t.Fatalf("t=%v n=%d: %v", th, n, err)
			}
			plan := core.NewRunPlan(pr)
			sameUses(t, "padded", plan.Materialized(), want)
			wantAssigns := 0
			for _, u := range want {
				wantAssigns += len(u.Tasks)
			}
			if got := plan.NumAssignments(); got != wantAssigns {
				t.Fatalf("t=%v n=%d: padded assignment arithmetic %d != %d", th, n, got, wantAssigns)
			}
		}
	}
}

// TestPlanCostMatchesSolveRandom pins the deduplicated control flow:
// PlanCost and the run planner now share one planSteps core, so the
// analytic cost must agree with the cost of the planned runs for
// randomized menus (within float tolerance — PlanCost sums per block,
// the plan per use).
func TestPlanCostMatchesSolveRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 150; trial++ {
		bins := randomMenu(rng)
		th := 0.5 + 0.49*rng.Float64()
		q, err := Build(bins, th)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		n := 1 + rng.Intn(200)
		pr, err := SolveRunsRange(q, 0, n)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want, err := core.NewRunPlan(pr).Cost(bins)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		got, err := PlanCost(q, n)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d (n=%d): PlanCost %v != planned runs cost %v", trial, n, got, want)
		}
	}
}
