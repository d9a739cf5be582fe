// Package stream plans decompositions incrementally for atomic tasks that
// arrive in batches, the arrival pattern Section 3.1 of the SLADE paper
// describes ("when a batch of atomic tasks arrives...").
//
// Solving each arriving batch independently with Algorithm 3 pays the
// block-remainder penalty once per batch. The streaming Planner instead
// buffers arrivals until full OPQ1 blocks are available — each full block
// is provably optimal (Corollary 1) — and pays a single remainder penalty
// at Flush. Its total cost therefore equals the one-shot OPQ-Based cost of
// the entire stream, regardless of how arrivals were sliced into batches,
// and never exceeds per-batch solving.
package stream

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/opq"
)

// Planner incrementally decomposes an unbounded stream of atomic tasks that
// share one reliability threshold. It is not safe for concurrent use.
type Planner struct {
	queue *opq.Queue
	bins  core.BinSet
	// buffer holds task ids awaiting a full block.
	buffer []int
	// blockSize is OPQ1.LCM, the optimal batch granularity.
	blockSize int
	// emittedCost accumulates the cost of everything emitted so far.
	emittedCost float64
	// emittedTasks counts tasks fully planned (buffered tasks excluded).
	emittedTasks int
	flushed      bool
}

// NewPlanner builds the planner for a menu and homogeneous threshold; the
// Optimal Priority Queue is constructed once up front.
func NewPlanner(bins core.BinSet, t float64) (*Planner, error) {
	q, err := opq.Build(bins, t)
	if err != nil {
		return nil, err
	}
	return NewPlannerWithQueue(q)
}

// NewPlannerWithQueue builds a planner around a pre-built (possibly cached
// or shared) queue, skipping Algorithm 2. The queue is read-only to the
// planner, so any number of planners may share one queue.
func NewPlannerWithQueue(q *opq.Queue) (*Planner, error) {
	if q == nil || len(q.Elems) == 0 {
		return nil, fmt.Errorf("stream: empty queue")
	}
	return &Planner{
		queue:     q,
		bins:      q.Bins(),
		blockSize: int(q.Elems[0].LCM),
	}, nil
}

// BlockSize returns the task granularity at which plans are emitted —
// OPQ1.LCM, the provably optimal block size.
func (p *Planner) BlockSize() int { return p.blockSize }

// Pending returns the number of buffered tasks awaiting a full block.
func (p *Planner) Pending() int { return len(p.buffer) }

// EmittedCost returns the total cost of every plan emitted so far.
func (p *Planner) EmittedCost() float64 { return p.emittedCost }

// EmittedTasks returns the number of tasks covered by emitted plans.
func (p *Planner) EmittedTasks() int { return p.emittedTasks }

// Add accepts a batch of task identifiers and returns the plan for every
// full block the buffer now holds (an empty plan when fewer than BlockSize
// tasks are pending). Task identifiers are the caller's and must be
// distinct across the stream: the block expansion places ids positionally,
// so a duplicate inside one block would occupy two slots of the same bin
// and yield a plan that fails core.Plan.Validate. Callers that cannot
// guarantee distinctness must dedupe first (the service layer rejects
// duplicate ids at job submission).
func (p *Planner) Add(taskIDs ...int) (*core.Plan, error) {
	if p.flushed {
		return nil, fmt.Errorf("stream: planner already flushed")
	}
	p.buffer = append(p.buffer, taskIDs...)
	emit := len(p.buffer) / p.blockSize * p.blockSize
	if emit == 0 {
		return &core.Plan{}, nil
	}
	// One solve covers every complete block at once: on an exact multiple
	// of the block size, Algorithm 3 emits the same full-block sequence a
	// block-by-block solve-and-merge loop would. The emitted plan owns a
	// copy of the ids, so compacting the buffer below never disturbs it.
	out, err := opq.SolveRuns(p.queue, p.buffer[:emit])
	if err != nil {
		return nil, err
	}
	p.buffer = append(p.buffer[:0], p.buffer[emit:]...)
	p.emittedTasks += emit
	c, err := out.Cost(p.bins)
	if err != nil {
		return nil, err
	}
	p.emittedCost += c
	return out, nil
}

// Flush plans the remaining buffered tasks (fewer than BlockSize) using
// Algorithm 3's remainder handling and closes the planner. Calling Flush
// with an empty buffer returns an empty plan.
func (p *Planner) Flush() (*core.Plan, error) {
	if p.flushed {
		return nil, fmt.Errorf("stream: planner already flushed")
	}
	p.flushed = true
	if len(p.buffer) == 0 {
		return &core.Plan{}, nil
	}
	out, err := opq.SolveRuns(p.queue, p.buffer)
	if err != nil {
		return nil, err
	}
	c, err := out.Cost(p.bins)
	if err != nil {
		return nil, err
	}
	p.emittedCost += c
	p.emittedTasks += len(p.buffer)
	p.buffer = nil
	return out, nil
}
