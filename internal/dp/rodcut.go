// Package dp collects the exact polynomial-time and exponential-time solvers
// that frame the SLADE problem's complexity analysis (Section 4.2 of the
// paper):
//
//   - RodCutting solves the relaxed SLADE variant (every bin confidence
//     meets the largest threshold) exactly in O(n·m), via the classic
//     rod-cutting dynamic program the paper cites.
//   - SolveUKP solves the Unbounded Knapsack Problem, the source of the
//     NP-hardness reduction of Theorem 1; tests replay the reduction.
//   - SolveExact finds the true optimal SLADE plan for tiny instances by
//     iterative-deepening search over residual states; it anchors the
//     approximation-quality tests.
package dp

import (
	"fmt"
	"math"

	"repro/internal/core"
)

// RodCutting solves the relaxed SLADE variant exactly: when every bin's
// confidence is at least the largest task threshold (Instance.Relaxed),
// each task needs exactly one bin slot, and the minimum cost of covering n
// slots from the menu is the rod-cutting recurrence
//
//	cost(0) = 0
//	cost(k) = min_l { c_l + cost(max(0, k-l)) }
//
// It returns an error when the instance is not relaxed.
func RodCutting(in *core.Instance) (*core.Plan, error) {
	if !in.Relaxed() {
		return nil, fmt.Errorf("dp: instance is not relaxed (min confidence %v < max threshold %v)",
			in.Bins().MinConfidence(), in.MaxThreshold())
	}
	n := in.N()
	if n == 0 {
		return &core.Plan{}, nil
	}
	// Tasks with a zero threshold need no slot at all.
	var need []int
	for i := 0; i < n; i++ {
		if in.Theta(i) > 0 {
			need = append(need, i)
		}
	}
	k := len(need)
	if k == 0 {
		return &core.Plan{}, nil
	}

	bins := in.Bins().Bins()
	cost := make([]float64, k+1)
	choice := make([]int, k+1) // bin index chosen at each prefix length
	for i := 1; i <= k; i++ {
		cost[i] = math.Inf(1)
		choice[i] = -1
		for bi, b := range bins {
			rest := i - b.Cardinality
			if rest < 0 {
				rest = 0
			}
			if c := b.Cost + cost[rest]; c < cost[i] {
				cost[i] = c
				choice[i] = bi
			}
		}
	}

	var uses []core.BinUse
	for i := k; i > 0; {
		b := bins[choice[i]]
		take := b.Cardinality
		if take > i {
			take = i
		}
		use := core.BinUse{Cardinality: b.Cardinality}
		use.Tasks = append(use.Tasks, need[i-take:i]...)
		uses = append(uses, use)
		i -= take
	}
	return core.PlanFromUses(uses)
}

// RodCuttingCost returns only the optimal cost of the relaxed variant for a
// task count, without materializing a plan. It is the O(n·m) table of the
// same recurrence and exists for capacity planning and tests.
func RodCuttingCost(bins core.BinSet, n int) (float64, error) {
	if bins.Len() == 0 {
		return 0, fmt.Errorf("dp: empty bin menu")
	}
	if n <= 0 {
		return 0, nil
	}
	menu := bins.Bins()
	cost := make([]float64, n+1)
	for i := 1; i <= n; i++ {
		cost[i] = math.Inf(1)
		for _, b := range menu {
			rest := i - b.Cardinality
			if rest < 0 {
				rest = 0
			}
			if c := b.Cost + cost[rest]; c < cost[i] {
				cost[i] = c
			}
		}
	}
	return cost[n], nil
}
