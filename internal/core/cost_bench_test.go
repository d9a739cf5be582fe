package core_test

import (
	"fmt"
	"testing"

	"repro/internal/binset"
	"repro/internal/opq"
)

// BenchmarkPlanCost times Plan.Cost — the summary's cost, summed by
// binade jumps in O(runs) — on the Jelly-20 plan at t = 0.9 for n = 10⁴,
// 10⁶ and 2²⁴ tasks, so its per-op time reads whether the sum still grows
// with the plan's uses. On 2 shared vCPUs (go1.24), three alternating runs
// of 2,000 iterations each read 0.70–0.78 µs, 1.22–1.38 µs and 1.06–1.60 µs
// at the three sizes, 0 allocations; commit e0d0f28, which added one use
// at a time, reads 4.77–5.72 µs, 395–536 µs and 7.25–8.50 ms, 1 allocation
// (8 B) each.
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
