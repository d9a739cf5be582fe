package opq

import (
	"fmt"
	"math"

	"repro/internal/core"
)

// Solver solves homogeneous SLADE instances with the OPQ-Based approximation
// of Algorithm 3. It carries a log n approximation guarantee (Theorem 2) and
// is exactly optimal when n is a multiple of OPQ1.LCM (Corollary 1).
// The zero value is ready to use.
type Solver struct{}

// Name implements core.Solver.
func (Solver) Name() string { return "OPQ-Based" }

// Solve implements core.Solver. The instance must be homogeneous; use the
// hetero package for mixed thresholds.
func (Solver) Solve(in *core.Instance) (*core.Plan, error) {
	if !in.Homogeneous() {
		return nil, fmt.Errorf("opq: instance is heterogeneous; use hetero.Solver")
	}
	if in.N() == 0 {
		return &core.Plan{}, nil
	}
	q, err := Build(in.Bins(), in.Threshold(0))
	if err != nil {
		return nil, err
	}
	return SolveRunsRange(q, 0, in.N())
}

// planSteps runs Algorithm 3's decision loop for n tasks, emitting each
// decision instead of materializing assignments: emit(c, blocks, 0) for
// blocks consecutive full blocks of combination c, emit(c, 0, rem) for one
// final padded application of c over rem < c.LCM remainder tasks. It is
// the single control-flow core shared by SolveRuns, SolveRunsRange,
// SolveInto and PlanCost.
func planSteps(q *Queue, n int, emit func(c *Comb, blocks, rem int)) error {
	if len(q.Elems) == 0 {
		return fmt.Errorf("opq: empty queue")
	}
	if core.Theta(q.Threshold) == 0 || n == 0 {
		return nil
	}
	// Work on a shrinking view of the queue, as Algorithm 3 removes
	// elements whose block size exceeds the remaining task count.
	elems := q.Elems
	var prev *Comb
	for n > 0 {
		// Lines 4-5: drop combinations with blocks larger than what's left.
		for len(elems) > 0 && elems[0].LCM > int64(n) {
			elems = elems[1:]
		}
		if len(elems) == 0 {
			// Remainder smaller than every block: cover it with one padded
			// application of the previous combination (Algorithm 3's
			// over-provisioning step), or of the cheapest block overall if
			// the main loop never ran.
			best := prev
			if best == nil {
				best = cheapestBlock(q)
			}
			emit(best, 0, n)
			return nil
		}
		e := &elems[0]
		k := n / int(e.LCM)
		// Lines 7-10: if covering k blocks with the current combination is
		// dearer than one padded application of the previous combination,
		// finish with the previous one.
		if prev != nil && float64(k)*e.BlockCost() > prev.BlockCost() {
			emit(prev, 0, n)
			return nil
		}
		// Lines 12-15: assign k full blocks (k ≥ 1 after the trim above).
		emit(e, k, 0)
		n -= k * int(e.LCM)
		prev = e
	}
	return nil
}

// SolveRuns runs Algorithm 3 on the given task identifiers using a
// pre-built queue and returns the plan in compact block-run form: run
// metadata over one arena holding a copy of tasks, with no per-use
// allocation — the representation the serving layer keeps end to end,
// expanding only at the JSON edge. The queue's threshold applies to every
// task; sharing a queue across calls is how the evaluation amortizes
// construction cost, and how the heterogeneous OPQ-Extended algorithm
// drives per-partition solves. The plan's expansion is use for use what
// Algorithm 3's per-use expansion emits (the equivalence test pins this
// against a reference expansion). Task ids must be distinct: the block
// expansion places ids positionally (and the padded block dedups by
// position), so a duplicate would occupy two slots of one bin and yield
// a plan that fails core.Plan.Validate — the same precondition the
// expansion has always had, which the service layer enforces at
// submission.
func SolveRuns(q *Queue, tasks []int) (*core.Plan, error) {
	p, err := solveSized(q, len(tasks))
	if err != nil {
		return nil, err
	}
	if p.N > 0 { // caller ids replace the identity arena
		p.Arena, p.N = make([]int, len(tasks)), 0
		copy(p.Arena, tasks)
	}
	return p, nil
}

// SolveRunsRange is SolveRuns for the contiguous task ids base..base+n-1:
// the plan keeps solveSized's identity arena, moved to base, so the solve
// is O(runs) time and memory at any n — the shape the service's
// homogeneous path uses.
func SolveRunsRange(q *Queue, base, n int) (*core.Plan, error) {
	p, err := solveSized(q, n)
	if err != nil {
		return nil, err
	}
	p.Base = base
	return p, nil
}

// solveSized plans the runs for n tasks over the identity arena 0..n-1
// (empty when θ = 0 leaves the plan without runs): no id is written. A
// first planSteps pass only counts the runs, so the plan is two
// allocations — itself and its exactly sized run slice — with every run
// pointing at its element's recipe on the queue.
func solveSized(q *Queue, n int) (*core.Plan, error) {
	runs := 0
	if err := planSteps(q, n, func(*Comb, int, int) { runs++ }); err != nil {
		return nil, err
	}
	if runs == 0 {
		return &core.Plan{}, nil
	}
	p, _ := SolveInto(q, n, make([]core.BlockRun, 0, runs)) // the same steps: it cannot fail now
	return &p, nil
}

// SolveInto is SolveRunsRange at base 0 returning the plan by value, with
// its runs appended to runs[:0]: given room for them, the solve allocates
// nothing, so a caller that only reads the plan — to summarize it, say —
// can hold plan and runs on its stack. The plan aliases runs; a plan
// without runs (n = 0, or θ = 0) is the zero Plan.
func SolveInto(q *Queue, n int, runs []core.BlockRun) (core.Plan, error) {
	runs = runs[:0]
	pos := 0
	err := planSteps(q, n, func(c *Comb, blocks, rem int) {
		ln := blocks * int(c.LCM)
		if blocks == 0 {
			ln = rem
		}
		runs = append(runs, core.BlockRun{Comb: c.run, Blocks: blocks, Off: pos, Len: ln})
		pos += ln
	})
	if err != nil || len(runs) == 0 {
		return core.Plan{}, err
	}
	return core.Plan{N: n, Runs: runs}, nil
}

// cheapestBlock returns the queue element with the smallest one-shot block
// cost LCM × UC; it covers any remainder smaller than every block size.
func cheapestBlock(q *Queue) *Comb {
	best := &q.Elems[0]
	for i := 1; i < len(q.Elems); i++ {
		if q.Elems[i].BlockCost() < best.BlockCost() {
			best = &q.Elems[i]
		}
	}
	return best
}

// PlanCost predicts the cost Algorithm 3 will incur for n tasks without
// materializing assignments. It sums block costs over the same planSteps
// decisions SolveRuns turns into a plan, so it can no longer drift from
// the solver's control flow.
func PlanCost(q *Queue, n int) (float64, error) {
	cost := 0.0
	err := planSteps(q, n, func(c *Comb, blocks, rem int) {
		if blocks == 0 {
			cost += c.BlockCost()
			return
		}
		cost += float64(blocks) * c.BlockCost()
	})
	if err != nil {
		return 0, err
	}
	return cost, nil
}

// ApproxRatioBound returns the Theorem-2 approximation guarantee log2(n)
// (at least 1) for an instance of n tasks.
func ApproxRatioBound(n int) float64 {
	if n < 2 {
		return 1
	}
	return math.Log2(float64(n))
}
