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

// ShardPoolObs is the instrumentation sink of a ShardedSolver: solve
// latency, the time solves wait for a slot, and a count of solves. All
// fields must be non-nil when the struct is set; a nil *ShardPoolObs
// disables instrumentation entirely.
type ShardPoolObs struct {
	// SolveDuration observes each solve's wall-clock once it holds a slot
	// (cache lookup or build included), in seconds.
	SolveDuration *obs.Histogram
	// QueueWait observes how long each solve waited for one of the
	// solver's Workers slots, in seconds — zero waits and waits abandoned
	// on cancellation included. This is the admission-control input
	// signal.
	QueueWait *obs.Histogram
	// ShardJobs counts solves executed.
	ShardJobs *obs.Counter
}

// ShardedSolver is the service's cached solve path: one Algorithm-3 solve
// per request over a queue pulled through the shared cache, with at most
// Workers solves running at once across all callers. Homogeneous instances
// are one opq.SolveRunsRange; heterogeneous ones are hetero.SolveWith —
// the library's OPQ-Extended with the cache as its queue builder — so
// either plan is byte-identical to opq.Solver's / hetero.Solve's.
//
// The name, the wire name "sharded" and the slade_shard_* metrics date from
// when a request was cut into block-aligned spans solved on a pool; in run
// form a solve is O(runs) decisions over an identity id arena — nothing
// n-sized is written — and the split only added work, in process and
// across machines alike. Contract goldens, alert rules and benchmark/
// spell the old names, so the rename waits for a [benchmark] PR.
//
// Concurrency contract: Solve and SolveContext are safe for concurrent use
// from any number of goroutines (the cache coalesces duplicate builds and
// the slots bound total parallelism). The exported fields configure the
// solver and must not be mutated once the first Solve begins; the solver
// must not be copied after that either.
type ShardedSolver struct {
	// Cache supplies queues; required.
	Cache *OPQCache
	// Workers bounds solve concurrency; <= 0 selects runtime.NumCPU().
	Workers int
	// Obs, when non-nil, receives solve latency, slot queue wait, and
	// solve counts.
	Obs *ShardPoolObs

	// slots holds one token per running solve; built on first use so the
	// zero value plus a Cache stays ready to use.
	slotsOnce sync.Once
	slots     chan struct{}
}

// Name implements core.Solver. Safe for concurrent use.
func (s *ShardedSolver) Name() string { return "Sharded-OPQ" }

// Solve implements core.Solver. Safe for concurrent use; see the type
// comment for the full contract.
func (s *ShardedSolver) Solve(in *core.Instance) (*core.Plan, error) {
	return s.SolveContext(context.Background(), in)
}

// SolveContext is Solve with cancellation: the context is consulted while
// the solve waits for a slot, and a solve canceled by then returns
// ctx.Err(); once running it completes. Safe for concurrent use; the
// instance is only read, and the returned plan is owned by the caller.
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
	if err := s.acquire(ctx); err != nil {
		return nil, err
	}
	defer s.release()

	start := time.Now()
	plan, err := s.solve(in)
	if o := s.Obs; o != nil {
		o.SolveDuration.ObserveSince(start)
		o.ShardJobs.Inc()
	}
	return plan, err
}

// solve runs the request's one solve; the caller holds a slot.
func (s *ShardedSolver) solve(in *core.Instance) (*core.Plan, error) {
	if !in.Homogeneous() {
		return hetero.SolveWith(in, s.Cache.Get)
	}
	q, err := s.Cache.Get(in.Bins(), in.Threshold(0))
	if err != nil {
		return nil, err
	}
	pr, err := opq.SolveRunsRange(q, 0, in.N())
	if err != nil {
		return nil, err
	}
	return core.NewRunPlan(pr), nil
}

// acquire takes one solve slot, waiting until one frees up or ctx is done.
// A context already canceled never takes a slot, even a free one.
func (s *ShardedSolver) acquire(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.slotsOnce.Do(func() { s.slots = make(chan struct{}, s.workers()) })
	start := time.Now()
	var err error
	select {
	case s.slots <- struct{}{}:
	case <-ctx.Done():
		err = ctx.Err()
	}
	if o := s.Obs; o != nil {
		o.QueueWait.ObserveSince(start)
	}
	return err
}

// release returns the slot taken by acquire.
func (s *ShardedSolver) release() { <-s.slots }

// workers resolves the effective slot count.
func (s *ShardedSolver) workers() int {
	if s.Workers > 0 {
		return s.Workers
	}
	return runtime.NumCPU()
}
