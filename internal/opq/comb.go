// Package opq implements the Optimal Priority Queue machinery of Section 5.2
// of the SLADE paper: combinations of task bins (Definition of Comb, LCM and
// unit cost UC), the construction of the optimal priority queue (Algorithm 2)
// and the OPQ-Based approximation solver with its block assignment expansion
// (Algorithm 3).
//
// Algorithm 2 runs as a backtracking depth-first search over bin multisets:
// one shared counts buffer, the partial (LCM, UC, mass) passed down as
// scalars, and a Comb allocated only for a combination that enters the
// frontier. Two cuts keep it small. Lemma 1 skips a partial combination the
// frontier already dominates on (LCM, UC). The cost bound skips one whose
// cheapest conceivable feasible completion — its UC plus the missing mass
// bought at the best unit-cost-per-mass ratio among the bins still allowed —
// is dominated. Either way every skipped combination would have been rejected
// when it reached the frontier, so Definition 4's queue is unchanged.
package opq

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/core"
)

// maxLCM bounds the least common multiple tracked during enumeration.
// Combinations whose LCM would exceed it are rejected; with the paper's
// cardinalities (≤ 30) this is never approached by useful combinations.
const maxLCM = int64(1) << 50

// Comb is a combination of task bins Comb = {n_k1 × b_k1, ..., n_kl × b_kl}:
// a recipe assigning one atomic task n_k times to k-cardinality bins. Applied
// to a block of LCM atomic tasks it uses n_k·LCM/k bins of each cardinality
// k and costs UC per task.
type Comb struct {
	// Counts maps a menu index (position in the ascending-cardinality
	// BinSet) to the number of times a task is assigned to that bin.
	counts []int
	// bins is the menu the combination was built against.
	bins core.BinSet
	// LCM is the least common multiple of the used cardinalities: the
	// natural block size of atomic tasks the combination decomposes.
	LCM int64
	// UC is the unit cost Σ n_k · c_k / k paid per atomic task when a
	// full block is assigned.
	UC float64
	// Mass is the transformed reliability Σ n_k · w_k each task receives.
	Mass float64
	// run is the combination's block recipe, built once by Build for every
	// element of the finished queue and shared read-only by every plan a
	// solve over the queue emits.
	run *core.RunComb
}

// BlockCost returns the total cost of applying the combination to one full
// block of LCM tasks: LCM × UC.
func (c *Comb) BlockCost() float64 { return float64(c.LCM) * c.UC }

// String renders the combination in the paper's notation, e.g. "{2×b3}".
func (c *Comb) String() string {
	var parts []string
	for i, n := range c.counts {
		if n > 0 {
			parts = append(parts, fmt.Sprintf("%d×b%d", n, c.bins.At(i).Cardinality))
		}
	}
	return "{" + strings.Join(parts, " + ") + "}"
}

// gcd returns the greatest common divisor of a and b.
func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// The enumeration calls lcm at every node and only asks whether it failed, so
// its errors are fixed values rather than formatted per call.
var (
	errLCMZero     = errors.New("opq: lcm of zero")
	errLCMOverflow = fmt.Errorf("opq: lcm exceeds %d", maxLCM)
)

// lcm returns the least common multiple of a and b, or an error past maxLCM.
func lcm(a, b int64) (int64, error) {
	if a == 0 || b == 0 {
		return 0, errLCMZero
	}
	g := gcd(a, b)
	l := a / g * b
	if l > maxLCM || l < 0 {
		return 0, errLCMOverflow
	}
	return l, nil
}

// Queue is the Optimal Priority Queue of Definition 4: feasible combinations
// forming a Pareto frontier on (LCM, UC), ordered by descending LCM — and
// therefore ascending UC. Elems[0] (OPQ1 in the paper) has the largest block
// size and the lowest unit cost.
type Queue struct {
	// Elems is the frontier in descending-LCM order.
	Elems []Comb
	// Threshold is the reliability threshold t the queue was built for.
	Threshold float64
	bins      core.BinSet
}

// Bins returns the menu the queue was built against.
func (q *Queue) Bins() core.BinSet { return q.bins }

// dominated reports whether a combination with the given (lcm, uc) is
// dominated by an existing element: some element has LCM ≤ lcm and UC ≤ uc
// (Definition 4 condition (2) / the pruning test of Algorithm 2 line 7).
// Elems is descending in LCM and ascending in UC, so the first element with
// LCM ≤ lcm is the cheapest of those that qualify and decides alone.
func (q *Queue) dominated(l int64, uc float64) bool {
	e := q.decider(l)
	return e != nil && e.UC <= uc
}

// decider returns the element that decides dominated(l, ·): the first, and
// so the cheapest, with LCM ≤ l, or nil when there is none.
func (q *Queue) decider(l int64) *Comb {
	for i := range q.Elems {
		if q.Elems[i].LCM <= l {
			return &q.Elems[i]
		}
	}
	return nil
}

// Validate checks the Definition-4 invariants: descending LCM, strictly
// ascending UC, no dominated pairs, and every element's mass meeting the
// threshold. Used by tests and by consumers that deserialize queues.
func (q *Queue) Validate() error {
	need := core.Theta(q.Threshold)
	for i, e := range q.Elems {
		if e.Mass < need-core.RelTol {
			return fmt.Errorf("opq: element %d mass %v below demand %v", i, e.Mass, need)
		}
		if i > 0 {
			prev := q.Elems[i-1]
			if e.LCM >= prev.LCM {
				return fmt.Errorf("opq: LCM not strictly descending at %d", i)
			}
			if e.UC <= prev.UC {
				return fmt.Errorf("opq: UC not strictly ascending at %d", i)
			}
		}
	}
	return nil
}
