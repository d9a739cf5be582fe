package service

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/hetero"
	"repro/internal/obs"
	"repro/internal/opq"
)

// ShardPoolObs is the instrumentation sink of a ShardedSolver: per-shard
// solve latency, the time shard jobs wait for a pool slot, and a count of
// shard jobs executed. All fields must be non-nil when the struct is set;
// a nil *ShardPoolObs disables instrumentation entirely.
type ShardPoolObs struct {
	// SolveDuration observes each shard job's solve wall-clock, in
	// seconds — including single-shard fast-path solves.
	SolveDuration *obs.Histogram
	// QueueWait observes how long each shard job waited to acquire a
	// worker-pool slot, in seconds. Fast-path solves never queue and are
	// not observed. This is the admission-control input signal.
	QueueWait *obs.Histogram
	// ShardJobs counts shard jobs executed.
	ShardJobs *obs.Counter
}

// ShardedSolver solves SLADE instances by splitting them into independent
// shards solved concurrently on a bounded worker pool, pulling every Optimal
// Priority Queue through a shared cache.
//
// Sharding preserves the exact OPQ-Based cost. Algorithm 3 covers n tasks
// with ⌊n / LCM₁⌋ full OPQ1 blocks — each provably optimal (Corollary 1) —
// and one over-provisioned remainder. Every shard except the last holds an
// exact multiple of LCM₁ tasks, so it decomposes into full OPQ1 blocks only;
// the last shard holds a multiple of LCM₁ plus the global remainder and
// reproduces the unsharded remainder handling verbatim. The merged plan
// therefore has the same use multiset — and the same cost — as the
// unsharded solve, for any shard count. Heterogeneous instances are first
// partitioned per threshold class (Algorithm 4); the same argument applies
// within each partition, and partitions are independent.
//
// Concurrency contract: Solve and SolveContext are safe for concurrent use
// from any number of goroutines (the cache coalesces duplicate builds and
// the worker pool bounds total parallelism). The exported fields configure
// the solver and must not be mutated once the first Solve begins.
type ShardedSolver struct {
	// Cache supplies queues; required.
	Cache *OPQCache
	// Workers bounds solve concurrency; <= 0 selects runtime.NumCPU().
	Workers int
	// MinShardBlocks is the minimum number of full OPQ1 blocks a shard must
	// hold for splitting to be worthwhile; <= 0 selects
	// DefaultMinShardBlocks. Small instances stay unsharded.
	MinShardBlocks int
	// Obs, when non-nil, receives per-shard solve latency, pool queue
	// wait, and job counts.
	Obs *ShardPoolObs
}

// DefaultMinShardBlocks is the per-shard block floor used when
// ShardedSolver.MinShardBlocks is zero: below it, goroutine and merge
// overhead outweighs the parallel speedup.
const DefaultMinShardBlocks = 8

// Name implements core.Solver. Safe for concurrent use.
func (s *ShardedSolver) Name() string { return "Sharded-OPQ" }

// Solve implements core.Solver. Safe for concurrent use; see the type
// comment for the full contract.
func (s *ShardedSolver) Solve(in *core.Instance) (*core.Plan, error) {
	return s.SolveContext(context.Background(), in)
}

// SolveContext is Solve with cancellation: between shards the context is
// consulted and a canceled solve returns ctx.Err(). Safe for concurrent
// use; the instance is only read, and the returned plan is owned by the
// caller.
func (s *ShardedSolver) SolveContext(ctx context.Context, in *core.Instance) (*core.Plan, error) {
	if in == nil {
		return nil, fmt.Errorf("service: nil instance")
	}
	if s.Cache == nil {
		return nil, fmt.Errorf("service: ShardedSolver requires a cache")
	}
	if in.N() == 0 {
		return &core.Plan{}, nil
	}

	shards, err := s.plan(in)
	if err != nil {
		return nil, err
	}
	return s.run(ctx, shards)
}

// shardJob is one unit of work against one queue: either a contiguous
// global-id range base..base+n-1 (tasks nil — the homogeneous path, which
// never materializes an id slice) or an explicit task-id slice (a
// heterogeneous partition's arbitrary ids).
type shardJob struct {
	queue *opq.Queue
	tasks []int
	base  int
	n     int
}

// solve runs the job's compact run-form solve.
func (j *shardJob) solve() (*core.PlanRuns, error) {
	if j.tasks == nil {
		return opq.SolveRunsRange(j.queue, j.base, j.n)
	}
	return opq.SolveRuns(j.queue, j.tasks)
}

// plan splits the instance into shard jobs. Homogeneous instances shard
// directly; heterogeneous instances shard within each Algorithm-4 partition.
// Job order is deterministic (partition order, then shard order), and the
// merged plan preserves it.
func (s *ShardedSolver) plan(in *core.Instance) ([]shardJob, error) {
	if in.Homogeneous() {
		q, err := s.Cache.Get(in.Bins(), in.Threshold(0))
		if err != nil {
			return nil, err
		}
		var jobs []shardJob
		for _, sp := range s.spans(q, in.N()) {
			jobs = append(jobs, shardJob{queue: q, base: sp.Base, n: sp.Len})
		}
		return jobs, nil
	}

	set, err := hetero.BuildSetWith(in, s.Cache.Get)
	if err != nil {
		return nil, err
	}
	var jobs []shardJob
	for _, part := range set.Partitions {
		if len(part.Tasks) == 0 {
			continue
		}
		for _, sp := range s.spans(part.Queue, len(part.Tasks)) {
			jobs = append(jobs, shardJob{queue: part.Queue, tasks: part.Tasks[sp.Base : sp.Base+sp.Len]})
		}
	}
	return jobs, nil
}

// spans cuts n tasks into one block-aligned span per useful shard worker.
func (s *ShardedSolver) spans(q *opq.Queue, n int) []opq.Span {
	minBlocks := s.MinShardBlocks
	if minBlocks <= 0 {
		minBlocks = DefaultMinShardBlocks
	}
	return opq.CutSpans(n, int(q.Elems[0].LCM), s.workers(), minBlocks)
}

// run executes the shard jobs on a bounded worker pool and merges the
// run-form plans in job order — run metadata concatenates and the arenas
// copy once; no per-use expansion happens anywhere on this path.
func (s *ShardedSolver) run(ctx context.Context, jobs []shardJob) (*core.Plan, error) {
	if len(jobs) == 1 {
		// Fast path: no pool, no merge — and no queue, so only the solve
		// duration is observed.
		start := time.Now()
		pr, err := jobs[0].solve()
		if o := s.Obs; o != nil {
			o.SolveDuration.ObserveSince(start)
			o.ShardJobs.Inc()
		}
		if err != nil {
			return nil, err
		}
		return core.NewRunPlan(pr), nil
	}

	workers := s.workers()
	sem := make(chan struct{}, workers)
	runs := make([]*core.PlanRuns, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for i := range jobs {
		if err := ctx.Err(); err != nil {
			errs[i] = err
			break
		}
		waitStart := time.Now()
		sem <- struct{}{}
		if o := s.Obs; o != nil {
			o.QueueWait.ObserveSince(waitStart)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			start := time.Now()
			runs[i], errs[i] = jobs[i].solve()
			if o := s.Obs; o != nil {
				o.SolveDuration.ObserveSince(start)
				o.ShardJobs.Inc()
			}
		}(i)
	}
	wg.Wait()

	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return core.NewRunPlan(core.MergePlanRuns(runs...)), nil
}

// workers resolves the effective pool size.
func (s *ShardedSolver) workers() int {
	if s.Workers > 0 {
		return s.Workers
	}
	return runtime.NumCPU()
}
