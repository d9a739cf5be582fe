package greedy

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
)

// SolveNaive is the literal transcription of Algorithm 1: it keeps one
// residual per task and re-sorts the whole task list every iteration. It is
// O(n² log n) and exists as the reference implementation against which the
// group-compressed Solve is cross-checked; use Solve for anything large.
func SolveNaive(in *core.Instance) (*core.Plan, error) {
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

	theta := make([]float64, n)
	order := make([]int, n)
	for i := 0; i < n; i++ {
		theta[i] = in.Theta(i)
		order[i] = i
	}

	minW := in.Bins().MinWeight()
	maxIters := n*int(math.Ceil(core.Theta(in.MaxThreshold())/minW)+1) + 1

	var uses []core.BinUse
	for iter := 0; ; iter++ {
		if iter > maxIters {
			return nil, fmt.Errorf("greedy: exceeded iteration bound %d", maxIters)
		}
		// Rank tasks in non-ascending residual order (line 3 / line 10).
		sort.SliceStable(order, func(a, b int) bool { return theta[order[a]] > theta[order[b]] })
		if theta[order[0]] <= core.RelTol {
			break
		}

		// Line 5: choose l* minimizing c_l / min(l·w_l, Σ top-l residuals).
		bestIdx, bestRatio := -1, math.Inf(1)
		for bi, b := range bins {
			topSum := 0.0
			for k := 0; k < b.Cardinality && k < n; k++ {
				if v := theta[order[k]]; v > 0 {
					topSum += v
				}
			}
			denom := math.Min(float64(b.Cardinality)*weights[bi], topSum)
			if denom <= 0 {
				continue
			}
			if ratio := b.Cost / denom; ratio < bestRatio {
				bestRatio, bestIdx = ratio, bi
			}
		}
		if bestIdx < 0 {
			break
		}
		chosen := bins[bestIdx]
		w := weights[bestIdx]

		// Lines 6-9: assign the top-l* tasks (only those still incomplete)
		// and lower their residuals, clamping at zero.
		use := core.BinUse{Cardinality: chosen.Cardinality}
		for k := 0; k < chosen.Cardinality && k < n; k++ {
			id := order[k]
			if theta[id] <= core.RelTol {
				break
			}
			use.Tasks = append(use.Tasks, id)
			theta[id] -= w
			if theta[id] < core.RelTol {
				theta[id] = 0
			}
		}
		uses = append(uses, use)
	}
	return core.PlanFromUses(uses)
}
