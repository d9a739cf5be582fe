package core_test

import (
	"fmt"
	"testing"

	"repro/internal/binset"
	"repro/internal/opq"
)

// BenchmarkPlanCost times Plan.Cost — the summary's cost, added one use
// at a time — on the Jelly-20 plan at t = 0.9 for n = 10⁴, 10⁶ and 2²⁴
// tasks, so its per-op time reads how the loop grows with the plan's uses.
func BenchmarkPlanCost(b *testing.B) {
	bins := binset.MustJelly(20)
	q, err := opq.Build(bins, 0.9)
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{10_000, 1_000_000, 1 << 24} {
		plan, err := opq.SolveRunsRange(q, 0, n)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := plan.Cost(bins); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
