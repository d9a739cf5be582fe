// Package refine post-optimizes feasible decomposition plans. The SLADE
// approximation algorithms (Greedy in particular, Section 5.1) can leave
// redundant coverage behind: bin uses whose removal keeps every task above
// its threshold, and bins larger than the tasks they still serve. Refine
// applies cost-only-decreasing local moves until a fixed point:
//
//   - Prune: drop a bin use entirely when every task it serves retains
//     enough transformed mass without it (most expensive uses first).
//   - Downgrade: replace a use with the cheapest smaller bin that still
//     fits its tasks and whose (possibly lower) confidence keeps every
//     served task feasible.
//
// Both moves preserve feasibility by construction, so Refine(plan) is
// always valid and never costs more than plan. It is a strict post-pass:
// the approximation guarantees of the original algorithms carry over.
package refine

import (
	"fmt"
	"sort"

	"repro/internal/core"
)

// Result reports what a refinement pass changed.
type Result struct {
	// Plan is the refined plan.
	Plan *core.Plan
	// CostBefore and CostAfter bracket the improvement.
	CostBefore, CostAfter float64
	// Pruned counts removed bin uses.
	Pruned int
	// Downgraded counts uses replaced by smaller bins.
	Downgraded int
}

// Saved returns the cost improvement.
func (r *Result) Saved() float64 { return r.CostBefore - r.CostAfter }

// Refine applies prune and downgrade moves until no move improves the
// plan. The input plan must be feasible for the instance; the input is not
// modified.
func Refine(in *core.Instance, plan *core.Plan) (*Result, error) {
	if err := plan.Validate(in); err != nil {
		return nil, fmt.Errorf("refine: input plan must be feasible: %w", err)
	}
	// The moves drop uses and change cardinalities but never touch a task
	// list, so a shallow copy of the (shared, read-only) use list is enough.
	uses := append([]core.BinUse(nil), plan.Materialized()...)
	costBefore, err := plan.Cost(in.Bins())
	if err != nil {
		return nil, err
	}
	res := &Result{CostBefore: costBefore}

	mass, err := plan.TransformedMass(in.N(), in.Bins())
	if err != nil {
		return nil, err
	}
	for {
		var changed bool
		uses, changed, err = prunePass(in, uses, mass, res)
		if err != nil {
			return nil, err
		}
		down, err := downgradePass(in, uses, mass, res)
		if err != nil {
			return nil, err
		}
		if !changed && !down {
			break
		}
	}
	if res.Plan, err = core.PlanFromUses(uses); err != nil {
		return nil, err
	}
	res.CostAfter, err = res.Plan.Cost(in.Bins())
	if err != nil {
		return nil, err
	}
	if err := res.Plan.Validate(in); err != nil {
		return nil, fmt.Errorf("refine: internal error, produced infeasible plan: %w", err)
	}
	return res, nil
}

// prunePass removes every use whose removal keeps all served tasks
// feasible, visiting the most expensive uses first. It updates mass in
// place and returns the kept uses and whether anything was removed.
func prunePass(in *core.Instance, uses []core.BinUse, mass []float64, res *Result) ([]core.BinUse, bool, error) {
	order := make([]int, len(uses))
	for i := range order {
		order[i] = i
	}
	costs := make([]float64, len(uses))
	for i, u := range uses {
		b, ok := in.Bins().ByCardinality(u.Cardinality)
		if !ok {
			return nil, false, fmt.Errorf("refine: unknown bin cardinality %d", u.Cardinality)
		}
		costs[i] = b.Cost
	}
	sort.Slice(order, func(a, b int) bool { return costs[order[a]] > costs[order[b]] })

	removed := make(map[int]bool)
	for _, idx := range order {
		u := uses[idx]
		b, _ := in.Bins().ByCardinality(u.Cardinality)
		w := b.Weight()
		ok := true
		for _, task := range u.Tasks {
			if mass[task]-w < in.Theta(task)-core.RelTol {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for _, task := range u.Tasks {
			mass[task] -= w
		}
		removed[idx] = true
		res.Pruned++
	}
	if len(removed) == 0 {
		return uses, false, nil
	}
	kept := uses[:0]
	for i, u := range uses {
		if !removed[i] {
			kept = append(kept, u)
		}
	}
	return kept, true, nil
}

// downgradePass replaces each use with the cheapest bin that still holds
// its tasks and keeps them feasible at the new confidence. Returns whether
// anything changed.
func downgradePass(in *core.Instance, uses []core.BinUse, mass []float64, res *Result) (bool, error) {
	menu := in.Bins().Bins()
	changed := false
	for i := range uses {
		u := &uses[i]
		cur, ok := in.Bins().ByCardinality(u.Cardinality)
		if !ok {
			return false, fmt.Errorf("refine: unknown bin cardinality %d", u.Cardinality)
		}
		best := cur
		for _, cand := range menu {
			if cand.Cardinality == cur.Cardinality || cand.Cost >= best.Cost {
				continue
			}
			if cand.Cardinality < len(u.Tasks) {
				continue
			}
			delta := cand.Weight() - cur.Weight()
			feasible := true
			for _, task := range u.Tasks {
				if mass[task]+delta < in.Theta(task)-core.RelTol {
					feasible = false
					break
				}
			}
			if feasible {
				best = cand
			}
		}
		if best.Cardinality != cur.Cardinality {
			delta := best.Weight() - cur.Weight()
			for _, task := range u.Tasks {
				mass[task] += delta
			}
			u.Cardinality = best.Cardinality
			res.Downgraded++
			changed = true
		}
	}
	return changed, nil
}
