package hetero

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/opq"
)

// SolveParallel is Solve with the per-partition Algorithm-3 runs executed
// concurrently. Partitions of Algorithm 5 are independent — they share no
// tasks and no queue state — and the merge is in partition order, so the
// plan is identical to the serial version's. workers ≤ 0 selects
// GOMAXPROCS.
func SolveParallel(in *core.Instance, workers int) (*core.Plan, error) {
	set, err := BuildSet(in)
	if err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	parts := make([]*core.PlanRuns, len(set.Partitions))
	errs := make([]error, len(set.Partitions))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i := range set.Partitions {
		part := set.Partitions[i]
		if len(part.Tasks) == 0 {
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, part Partition) {
			defer wg.Done()
			defer func() { <-sem }()
			var err error
			if parts[i], err = opq.SolveRuns(part.Queue, part.Tasks); err != nil {
				errs[i] = fmt.Errorf("hetero: partition τ=%v: %w", part.Tau, err)
			}
		}(i, part)
	}
	wg.Wait()

	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	// Empty partitions left a nil entry, which the merge skips.
	return core.NewRunPlan(core.MergePlanRuns(parts...)), nil
}

// ParallelSolver adapts SolveParallel to the core.Solver interface.
type ParallelSolver struct {
	// Workers bounds concurrency; ≤ 0 means GOMAXPROCS.
	Workers int
}

// Name implements core.Solver.
func (ParallelSolver) Name() string { return "OPQ-Extended-Parallel" }

// Solve implements core.Solver.
func (s ParallelSolver) Solve(in *core.Instance) (*core.Plan, error) {
	return SolveParallel(in, s.Workers)
}
