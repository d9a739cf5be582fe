// Package hetero implements the heterogeneous SLADE solver of Section 6 of
// the paper: Algorithm 4 builds a set of Optimal Priority Queues, one per
// power-of-two interval of the transformed thresholds θ_i = -ln(1-t_i), and
// Algorithm 5 (OPQ-Extended) partitions the atomic tasks into those
// intervals and runs the OPQ-Based solver (Algorithm 3) per partition with
// the interval's upper bound as a homogeneous threshold.
//
// The resulting plan carries the approximation guarantee of Theorem 3:
// 2·⌈log2(θmax/θmin)⌉·log n.
package hetero

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/opq"
)

// Partition describes one power-of-two θ-interval of Algorithm 4 together
// with its queue and member tasks.
type Partition struct {
	// Tau is the interval's upper bound on transformed thresholds; the
	// partition is solved homogeneously at threshold 1 - e^{-Tau}.
	Tau float64
	// Queue is the Optimal Priority Queue built for 1 - e^{-Tau}.
	Queue *opq.Queue
	// Tasks holds the indices of the atomic tasks whose θ falls in the
	// interval.
	Tasks []int
}

// QueueSet is the output of Algorithm 4 plus the task partition of
// Algorithm 5 lines 5-7.
type QueueSet struct {
	// Partitions are ordered by ascending Tau.
	Partitions []Partition
	// ThetaMin and ThetaMax are the extreme positive transformed demands.
	ThetaMin, ThetaMax float64
}

// QueueBuilder constructs the Optimal Priority Queue for a menu and
// threshold; opq.Build is the canonical implementation. BuildSetWith accepts
// one so a serving layer can route per-interval queue construction through a
// shared cache.
type QueueBuilder func(bins core.BinSet, t float64) (*opq.Queue, error)

// BuildSet runs Algorithm 4 on the instance: it computes
// α = ⌊log2 θmin⌋ and builds one queue per interval upper bound
// τ_i = min(2^{α+i+1}, θmax) until θmax is covered, then assigns every task
// to the first interval whose bound dominates its demand. Tasks with zero
// demand (t_i = 0) are omitted — they need no coverage.
func BuildSet(in *core.Instance) (*QueueSet, error) {
	return BuildSetWith(in, opq.Build)
}

// BuildSetWith is BuildSet with the per-interval queue construction delegated
// to build. The partition structure (interval bounds and task placement) is
// identical to BuildSet's; only the queue provenance differs.
func BuildSetWith(in *core.Instance, build QueueBuilder) (*QueueSet, error) {
	if in.Bins().Len() == 0 {
		return nil, fmt.Errorf("hetero: empty bin menu")
	}
	thetaMin, thetaMax := math.Inf(1), 0.0
	for i := 0; i < in.N(); i++ {
		th := in.Theta(i)
		if th <= 0 {
			continue
		}
		if th < thetaMin {
			thetaMin = th
		}
		if th > thetaMax {
			thetaMax = th
		}
	}
	if thetaMax == 0 {
		return &QueueSet{}, nil // every threshold is zero
	}

	alpha := math.Floor(math.Log2(thetaMin))
	set := &QueueSet{ThetaMin: thetaMin, ThetaMax: thetaMax}
	// Line 5 of Algorithm 4: iterate while 2^{α+i} < θmax; always emit at
	// least one interval so the homogeneous edge case (θmin = θmax equal to
	// a power of two) is covered.
	for i := 0; ; i++ {
		lower := math.Pow(2, alpha+float64(i))
		if i > 0 && lower >= thetaMax {
			break
		}
		tau := math.Min(math.Pow(2, alpha+float64(i)+1), thetaMax)
		t := core.ThresholdFromTheta(tau)
		q, err := build(in.Bins(), t)
		if err != nil {
			return nil, fmt.Errorf("hetero: building queue for τ=%v: %w", tau, err)
		}
		set.Partitions = append(set.Partitions, Partition{Tau: tau, Queue: q})
		if tau >= thetaMax {
			break
		}
	}

	// Algorithm 5 lines 5-7: place each task in the first interval whose
	// upper bound covers its demand.
	for i := 0; i < in.N(); i++ {
		th := in.Theta(i)
		if th <= 0 {
			continue
		}
		j := 0
		for j < len(set.Partitions)-1 && th > set.Partitions[j].Tau+core.RelTol {
			j++
		}
		set.Partitions[j].Tasks = append(set.Partitions[j].Tasks, i)
	}
	return set, nil
}

// Solver solves heterogeneous (and homogeneous) SLADE instances with
// OPQ-Extended (Algorithm 5). The zero value is ready to use.
type Solver struct{}

// Name implements core.Solver.
func (Solver) Name() string { return "OPQ-Extended" }

// Solve implements core.Solver.
func (Solver) Solve(in *core.Instance) (*core.Plan, error) { return Solve(in) }

// Solve runs OPQ-Extended: build the queue set, solve each non-empty
// partition homogeneously with Algorithm 3, and merge the plans.
func Solve(in *core.Instance) (*core.Plan, error) { return SolveWith(in, opq.Build) }

// SolveWith is Solve with the per-interval queues supplied by build — how
// a serving layer runs the same OPQ-Extended over a shared queue cache. The
// plan depends only on the queues' contents, not their provenance.
func SolveWith(in *core.Instance, build QueueBuilder) (*core.Plan, error) {
	set, err := BuildSetWith(in, build)
	if err != nil {
		return nil, err
	}
	var parts []*core.Plan
	for _, part := range set.Partitions {
		if len(part.Tasks) == 0 {
			continue
		}
		sub, err := opq.SolveRuns(part.Queue, part.Tasks)
		if err != nil {
			return nil, fmt.Errorf("hetero: partition τ=%v: %w", part.Tau, err)
		}
		parts = append(parts, sub)
	}
	return core.MergePlans(parts...), nil
}

// ApproxRatioBound returns the Theorem-3 guarantee
// 2·⌈log2(θmax/θmin)⌉·log2(n), at least 1, for the instance.
func ApproxRatioBound(in *core.Instance) float64 {
	thetaMin, thetaMax := math.Inf(1), 0.0
	for i := 0; i < in.N(); i++ {
		th := in.Theta(i)
		if th <= 0 {
			continue
		}
		thetaMin = math.Min(thetaMin, th)
		thetaMax = math.Max(thetaMax, th)
	}
	if thetaMax == 0 || in.N() < 2 {
		return 1
	}
	spread := math.Ceil(math.Log2(thetaMax / thetaMin))
	if spread < 1 {
		spread = 1
	}
	return 2 * spread * math.Log2(float64(in.N()))
}
