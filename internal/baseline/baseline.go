// Package baseline implements the Baseline algorithm of Section 4.3 of the
// SLADE paper: reduce the SLADE problem to a covering integer program (CIP),
// solve its linear relaxation, and round the fractional solution to an
// integral decomposition plan.
//
// The verbatim reduction generates one CIP column per (bin, task subset)
// pair — Σ_l C(n,l) columns — which is exponential; the paper itself "only
// generate[s] part of the combination instances". This package provides two
// entry points:
//
//   - Solver / Solve: the scalable variant. Atomic tasks are grouped by
//     distinct threshold (tasks are symmetric within a group, so the LP
//     relaxation loses nothing by aggregating them), one small LP per group
//     is solved with the simplex solver of internal/lp, the fractional bin
//     counts are randomized-rounded, round-robin materialized, and any
//     residual infeasibility is repaired greedily. This is the Baseline the
//     experiment harness runs at n = 100,000.
//
//   - SolveFullCIP: the literal Section-4.3 reduction with the full
//     exponential column family. It is only tractable for tiny instances
//     and exists to validate the reduction and the scalable variant.
package baseline

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/greedy"
	"repro/internal/lp"
)

// Solver is the scalable Baseline. Seed controls the randomized rounding;
// two solvers with the same seed produce identical plans.
type Solver struct {
	// Seed seeds the rounding RNG. The zero value is a valid seed.
	Seed int64
}

// Name implements core.Solver.
func (Solver) Name() string { return "Baseline" }

// Solve implements core.Solver.
func (s Solver) Solve(in *core.Instance) (*core.Plan, error) { return Solve(in, s.Seed) }

// group is a set of tasks sharing one reliability threshold.
type group struct {
	theta float64
	ids   []int
}

// Solve runs the scalable Baseline with the given rounding seed.
func Solve(in *core.Instance, seed int64) (*core.Plan, error) {
	n := in.N()
	if n == 0 {
		return &core.Plan{}, nil
	}
	if in.Bins().Len() == 0 {
		return nil, fmt.Errorf("baseline: empty bin menu")
	}
	rng := rand.New(rand.NewSource(seed))

	// Group tasks by distinct transformed demand.
	byTheta := make(map[float64][]int)
	for i := 0; i < n; i++ {
		if th := in.Theta(i); th > 0 {
			byTheta[th] = append(byTheta[th], i)
		}
	}
	groups := make([]group, 0, len(byTheta))
	for th, ids := range byTheta {
		groups = append(groups, group{theta: th, ids: ids})
	}
	sort.Slice(groups, func(a, b int) bool { return groups[a].theta < groups[b].theta })

	var uses []core.BinUse
	for _, g := range groups {
		var err error
		if uses, err = solveGroup(in, g, rng, uses); err != nil {
			return nil, err
		}
	}

	// Repair: randomized rounding may round down below feasibility; cover
	// the residual demand greedily.
	return repair(in, uses)
}

// solveGroup solves the aggregated covering LP for one threshold group and
// appends the rounded, materialized bin uses to uses.
//
// LP (variables y_l = number of l-bins dedicated to the group):
//
//	min  Σ c_l y_l
//	s.t. Σ min(l, |g|)·w_l·y_l ≥ |g|·θ_g,  y ≥ 0
//
// The min(l, |g|) accounts for bins larger than the group: their surplus
// slots cannot serve the group.
func solveGroup(in *core.Instance, g group, rng *rand.Rand, uses []core.BinUse) ([]core.BinUse, error) {
	bins := in.Bins().Bins()
	m := len(bins)
	ng := len(g.ids)
	c := make([]float64, m)
	row := make([]float64, m)
	for j, b := range bins {
		c[j] = b.Cost
		slots := b.Cardinality
		if slots > ng {
			slots = ng
		}
		row[j] = float64(slots) * b.Weight()
	}
	prob := &lp.Problem{
		C:      c,
		A:      [][]float64{row},
		B:      []float64{float64(ng) * g.theta},
		Senses: []lp.Sense{lp.GE},
	}
	sol, err := lp.Solve(prob)
	if err != nil {
		return nil, err
	}
	if sol.Status != lp.Optimal {
		return nil, fmt.Errorf("baseline: group LP status %v", sol.Status)
	}

	// Randomized rounding: floor plus a Bernoulli trial on the fraction.
	counts := make([]int, m)
	for j, y := range sol.X {
		fl := math.Floor(y + 1e-12)
		counts[j] = int(fl)
		if frac := y - fl; frac > 1e-12 && rng.Float64() < frac {
			counts[j]++
		}
	}

	// Materialize round-robin over the group so coverage spreads evenly.
	offset := 0
	for j, k := range counts {
		card := bins[j].Cardinality
		take := card
		if take > ng {
			take = ng
		}
		for u := 0; u < k; u++ {
			use := core.BinUse{Cardinality: card}
			for s := 0; s < take; s++ {
				use.Tasks = append(use.Tasks, g.ids[(offset+s)%ng])
			}
			offset = (offset + take) % ng
			uses = append(uses, use)
		}
	}
	return uses, nil
}

// repair turns the rounded uses into a plan and covers any residual demand
// left by rounding with greedy.SolveResidual.
func repair(in *core.Instance, uses []core.BinUse) (*core.Plan, error) {
	plan, err := core.PlanFromUses(uses)
	if err != nil {
		return nil, err
	}
	mass, err := plan.TransformedMass(in.N(), in.Bins())
	if err != nil {
		return nil, err
	}
	fix, err := greedy.SolveResidual(in, mass)
	if err != nil {
		return nil, err
	}
	if fix == nil {
		return plan, nil
	}
	return core.MergePlans(plan, fix), nil
}
