// Package budget solves the dual of the SLADE problem: instead of
// minimizing cost subject to a reliability threshold, it maximizes the
// uniform reliability achievable within a fixed incentive budget. Project
// owners usually start from a budget ("we have $500 for this screening
// round"), so this is the API a deployment asks first; it is answered by
// inverting the OPQ-Based cost function with a bisection over thresholds.
//
// Cost as a function of the threshold t is a step function (combinations
// change discretely), non-decreasing up to block-remainder effects, so the
// bisection is followed by a downward verification sweep.
package budget

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/opq"
)

// Options configures the search.
type Options struct {
	// MaxThreshold caps the searched reliability (default 0.999; higher
	// values blow up the transformed demand -ln(1-t)).
	MaxThreshold float64
	// Tolerance is the threshold resolution of the bisection
	// (default 1e-4).
	Tolerance float64
}

func (o Options) withDefaults() Options {
	if o.MaxThreshold == 0 {
		o.MaxThreshold = 0.999
	}
	if o.Tolerance == 0 {
		o.Tolerance = 1e-4
	}
	return o
}

// Result is the outcome of a budget search.
type Result struct {
	// Threshold is the highest uniform reliability found within budget.
	Threshold float64
	// Cost is the OPQ-Based plan cost at that threshold.
	Cost float64
	// Plan is the materialized decomposition plan.
	Plan *core.Plan
}

// MaxReliability finds the highest uniform reliability threshold t such
// that the OPQ-Based decomposition of n tasks over the menu costs at most
// the budget, and returns the corresponding plan. It errors when even the
// cheapest nonzero coverage exceeds the budget.
func MaxReliability(bins core.BinSet, n int, budget float64, opts Options) (*Result, error) {
	o := opts.withDefaults()
	if n <= 0 {
		return nil, fmt.Errorf("budget: non-positive task count %d", n)
	}
	if budget <= 0 {
		return nil, fmt.Errorf("budget: non-positive budget %v", budget)
	}

	cost := func(t float64) (float64, error) {
		q, err := opq.Build(bins, t)
		if err != nil {
			return 0, err
		}
		return opq.PlanCost(q, n)
	}

	// Establish feasibility at the bottom of the search range.
	lo := o.Tolerance
	cLo, err := cost(lo)
	if err != nil {
		return nil, err
	}
	if cLo > budget {
		return nil, fmt.Errorf("budget: $%v cannot cover %d tasks even at t=%v (needs $%v)",
			budget, n, lo, cLo)
	}
	hi := o.MaxThreshold
	if cHi, err := cost(hi); err == nil && cHi <= budget {
		lo = hi // the whole range is affordable
	}

	for hi-lo > o.Tolerance {
		mid := (lo + hi) / 2
		c, err := cost(mid)
		if err != nil {
			return nil, err
		}
		if c <= budget {
			lo = mid
		} else {
			hi = mid
		}
	}

	// Cost is a step function and not perfectly monotone at block
	// remainders; walk down until the materialized plan is affordable.
	t := lo
	for ; t > 0; t -= o.Tolerance {
		c, err := cost(t)
		if err != nil {
			return nil, err
		}
		if c <= budget {
			break
		}
	}
	if t <= 0 {
		return nil, fmt.Errorf("budget: no affordable threshold found")
	}

	q, err := opq.Build(bins, t)
	if err != nil {
		return nil, err
	}
	pr, err := opq.SolveRunsRange(q, 0, n)
	if err != nil {
		return nil, err
	}
	plan := core.NewRunPlan(pr)
	c, err := plan.Cost(bins)
	if err != nil {
		return nil, err
	}
	return &Result{Threshold: t, Cost: c, Plan: plan}, nil
}

// CostCurve evaluates the OPQ-Based cost of n tasks at each threshold —
// the planning curve a project owner reads budget/quality trade-offs from.
func CostCurve(bins core.BinSet, n int, thresholds []float64) ([]float64, error) {
	out := make([]float64, len(thresholds))
	for i, t := range thresholds {
		q, err := opq.Build(bins, t)
		if err != nil {
			return nil, fmt.Errorf("budget: t=%v: %w", t, err)
		}
		c, err := opq.PlanCost(q, n)
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}
