// Package greedy implements Algorithm 1 of the SLADE paper: a greedy
// heuristic that repeatedly picks the task bin with the lowest
// cost-confidence ratio (Eq. 4)
//
//	ratio(l) = c_l / min{ l · w_l , Σ_{k=1..l} θ_{i_k} }
//
// where w_l = -ln(1-r_l) and θ_{i_1} ≥ θ_{i_2} ≥ ... are the current
// threshold residuals in non-ascending order. The chosen bin is filled with
// the l tasks of highest residual, whose residuals then drop by w_l
// (clamped at zero), and the process repeats until every residual is zero.
//
// The textbook formulation re-sorts all n tasks each iteration
// (O(n² log n) overall, Section 5.1). Solve uses a semantically identical
// group-compressed implementation: tasks with equal residual are kept as one
// group in a max-heap, so an iteration costs O((m + l*) log G) where G is
// the number of distinct residual values. SolveNaive is the literal
// transcription of Algorithm 1 and is used to cross-check Solve in tests.
//
// Greedy handles both the homogeneous and the heterogeneous SLADE variants:
// per Section 6, different thresholds only change the initial residuals.
package greedy

import (
	"container/heap"
	"fmt"
	"math"

	"repro/internal/core"
)

// Solver solves SLADE instances with the greedy heuristic of Algorithm 1.
// The zero value is ready to use.
type Solver struct{}

// Name implements core.Solver.
func (Solver) Name() string { return "Greedy" }

// Solve implements core.Solver using the group-compressed strategy.
func (Solver) Solve(in *core.Instance) (*core.Plan, error) { return Solve(in) }

// group is a maximal set of tasks sharing the same threshold residual.
type group struct {
	val float64
	ids []int
}

// groupHeap is a max-heap of groups ordered by residual value.
type groupHeap []group

func (h groupHeap) Len() int            { return len(h) }
func (h groupHeap) Less(i, j int) bool  { return h[i].val > h[j].val }
func (h groupHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *groupHeap) Push(x interface{}) { *h = append(*h, x.(group)) }
func (h *groupHeap) Pop() interface{} {
	old := *h
	n := len(old)
	g := old[n-1]
	*h = old[:n-1]
	return g
}

// Solve runs the group-compressed greedy algorithm on the instance.
func Solve(in *core.Instance) (*core.Plan, error) {
	n := in.N()
	if n == 0 {
		return &core.Plan{}, nil
	}
	bins := in.Bins().Bins()
	if len(bins) == 0 {
		return nil, fmt.Errorf("greedy: empty bin menu")
	}
	weights := make([]float64, len(bins))
	for i, b := range bins {
		weights[i] = b.Weight()
	}
	maxCard := bins[len(bins)-1].Cardinality

	// Build the initial residual groups: one group per distinct θ_i.
	byTheta := make(map[float64][]int)
	for i := 0; i < n; i++ {
		th := in.Theta(i)
		if th > 0 {
			byTheta[th] = append(byTheta[th], i)
		}
	}
	h := make(groupHeap, 0, len(byTheta))
	for v, ids := range byTheta {
		h = append(h, group{val: v, ids: ids})
	}
	heap.Init(&h)

	// An upper bound on iterations: every iteration fully reduces at least
	// one task's residual by the smallest bin weight.
	minW := in.Bins().MinWeight()
	maxIters := n*int(math.Ceil(core.Theta(in.MaxThreshold())/minW)+1) + 1

	var uses []core.BinUse
	popped := make([]group, 0, maxCard+1)
	for iter := 0; ; iter++ {
		if h.Len() == 0 {
			break
		}
		if iter > maxIters {
			return nil, fmt.Errorf("greedy: exceeded iteration bound %d", maxIters)
		}

		// Pop enough groups to expose the top maxCard residuals.
		popped = popped[:0]
		exposed := 0
		for h.Len() > 0 && exposed < maxCard {
			g := heap.Pop(&h).(group)
			popped = append(popped, g)
			exposed += len(g.ids)
		}

		// Choose the bin minimizing the cost-confidence ratio over the
		// exposed residual prefix. Ascending cardinality order with strict
		// improvement breaks ties toward smaller bins.
		bestIdx, bestRatio := -1, math.Inf(1)
		for bi, b := range bins {
			topSum := prefixSum(popped, b.Cardinality)
			denom := math.Min(float64(b.Cardinality)*weights[bi], topSum)
			if denom <= 0 {
				continue
			}
			if ratio := b.Cost / denom; ratio < bestRatio {
				bestRatio, bestIdx = ratio, bi
			}
		}
		if bestIdx < 0 {
			// No positive residual left among exposed tasks.
			break
		}
		chosen := bins[bestIdx]
		w := weights[bestIdx]

		// Consume the top `chosen.Cardinality` tasks from the popped
		// groups, lower their residuals by w, and push survivors back.
		use := core.BinUse{Cardinality: chosen.Cardinality}
		remaining := chosen.Cardinality
		for _, g := range popped {
			if remaining == 0 || g.val <= 0 {
				// Untouched: push back unchanged (zero-valued groups are
				// dropped — those tasks are complete).
				if g.val > 0 {
					heap.Push(&h, g)
				}
				continue
			}
			take := len(g.ids)
			if take > remaining {
				take = remaining
			}
			use.Tasks = append(use.Tasks, g.ids[:take]...)
			remaining -= take
			newVal := g.val - w
			if newVal > core.RelTol {
				heap.Push(&h, group{val: newVal, ids: append([]int(nil), g.ids[:take]...)})
			}
			if take < len(g.ids) {
				heap.Push(&h, group{val: g.val, ids: g.ids[take:]})
			}
		}
		uses = append(uses, use)
	}
	return core.PlanFromUses(uses)
}

// SolveResidual covers what delivered leaves open: it re-decomposes the
// tasks whose transformed demand exceeds delivered[i] (a per-task mass, in
// in's task order) as a reduced instance at their residual thresholds and
// returns the greedy plan over in's task ids. It returns nil when every
// task is already covered.
func SolveResidual(in *core.Instance, delivered []float64) (*core.Plan, error) {
	var ids []int
	var residual []float64
	for i := 0; i < in.N(); i++ {
		if gap := in.Theta(i) - delivered[i]; gap > core.RelTol {
			ids = append(ids, i)
			residual = append(residual, core.ThresholdFromTheta(gap))
		}
	}
	if len(ids) == 0 {
		return nil, nil
	}
	sub, err := core.NewHeterogeneous(in.Bins(), residual)
	if err != nil {
		return nil, err
	}
	fix, err := Solve(sub)
	if err != nil {
		return nil, err
	}
	// Rename the reduced instance's ids back to in's. fix is ours alone
	// and not yet materialized, so its arena is the only copy of them —
	// and an explicit one, because Solve builds its plan with
	// core.PlanFromUses; an identity arena (opq.SolveRunsRange) has no
	// slots to write through.
	for i, t := range fix.Arena {
		fix.Arena[i] = ids[t]
	}
	return fix, nil
}

// prefixSum returns the sum of the top-l residuals exposed by the popped
// groups (which are in non-ascending value order), counting only positive
// values.
func prefixSum(popped []group, l int) float64 {
	sum := 0.0
	left := l
	for _, g := range popped {
		if left == 0 || g.val <= 0 {
			break
		}
		take := len(g.ids)
		if take > left {
			take = left
		}
		sum += g.val * float64(take)
		left -= take
	}
	return sum
}
