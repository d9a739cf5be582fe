package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
)

// RelTol is the absolute tolerance used when checking reliability
// constraints. Transformed demands are sums of logarithms, so exact equality
// is not attainable in floating point; a plan is feasible when every task's
// transformed mass is within RelTol of its demand.
const RelTol = 1e-9

// BinUse is one use of a task bin: a concrete batch of distinct atomic tasks
// handed to one crowd worker.
type BinUse struct {
	// Cardinality selects which bin of the menu is used. The number of
	// assigned tasks may be smaller than the cardinality (a partially
	// filled bin still costs the full c_l).
	Cardinality int `json:"cardinality"`
	// Tasks lists the indices of the atomic tasks placed in this bin.
	Tasks []int `json:"tasks"`
}

// PlanFromUses builds a plan whose expansion is use-for-use identical to
// uses (task storage is copied): maximal runs of consecutive full uses of
// one cardinality become one multi-block run (Comb BlockLen = cardinality,
// one use per block), and each partially filled use becomes a padded run
// over its tasks. It is the single way a use list — a decoded JSON plan, a
// peer's reply, the irregular output of the comparison solvers — becomes
// a Plan, and it fails closed on a use no bin could hold: a non-positive
// cardinality, no tasks, or more tasks than the cardinality.
func PlanFromUses(uses []BinUse) (*Plan, error) {
	tasks := 0
	for i := range uses {
		tasks += len(uses[i].Tasks)
	}
	out := &Plan{Arena: make([]int, 0, tasks)}
	combs := make(map[int]*RunComb)
	comb := func(card int) *RunComb {
		c, ok := combs[card]
		if !ok {
			c = &RunComb{Parts: []RunPart{{Cardinality: card, Count: 1}}, BlockLen: card}
			combs[card] = c
		}
		return c
	}
	for i := 0; i < len(uses); {
		u := &uses[i]
		card := u.Cardinality
		if card <= 0 || len(u.Tasks) > card {
			return nil, fmt.Errorf("core: use %d: %d tasks in a cardinality-%d bin", i, len(u.Tasks), card)
		}
		if len(u.Tasks) == card {
			// Extend across every consecutive full use of this cardinality.
			off := len(out.Arena)
			blocks := 0
			for ; i < len(uses) && uses[i].Cardinality == card && len(uses[i].Tasks) == card; i++ {
				out.Arena = append(out.Arena, uses[i].Tasks...)
				blocks++
			}
			out.Runs = append(out.Runs, BlockRun{Comb: comb(card), Blocks: blocks, Off: off, Len: blocks * card})
			continue
		}
		if len(u.Tasks) == 0 {
			return nil, fmt.Errorf("core: use %d: empty bin use", i)
		}
		// Padded remainder use: the run's window is the use's distinct
		// tasks; expansion cycles them back to exactly this task list.
		off := len(out.Arena)
		out.Arena = append(out.Arena, u.Tasks...)
		out.Runs = append(out.Runs, BlockRun{Comb: comb(card), Blocks: 0, Off: off, Len: len(u.Tasks)})
		i++
	}
	return out, nil
}

// MarshalJSON renders the plan in its wire form {"uses": [...]} through
// the streaming encoder, so stored job records and HTTP responses share
// one encoder.
func (p *Plan) MarshalJSON() ([]byte, error) {
	var buf bytes.Buffer
	if err := p.EncodeJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// UnmarshalJSON decodes the wire form through PlanFromUses, so a stored or
// received plan with a malformed use is rejected at decode. The receiver
// takes the decoded runs and arena.
func (p *Plan) UnmarshalJSON(data []byte) error {
	var wire struct {
		Uses []BinUse `json:"uses"`
	}
	if err := json.Unmarshal(data, &wire); err != nil {
		return err
	}
	decoded, err := PlanFromUses(wire.Uses)
	if err != nil {
		return err
	}
	*p = *decoded
	return nil
}

// MustCost is Cost that panics on an unknown cardinality; for plans that
// were already validated against the same menu.
func (p *Plan) MustCost(bins BinSet) float64 {
	c, err := p.Cost(bins)
	if err != nil {
		panic(err)
	}
	return c
}

// TransformedMass returns, for each task index in [0, n), the accumulated
// transformed reliability Σ -ln(1 - r_|β|) over the bins the task is
// assigned to. Tasks absent from the plan have mass 0.
func (p *Plan) TransformedMass(n int, bins BinSet) ([]float64, error) {
	mass := make([]float64, n)
	err := p.EachUse(func(card int, tasks []int) error {
		b, ok := bins.ByCardinality(card)
		if !ok {
			return fmt.Errorf("core: plan uses unknown bin cardinality %d", card)
		}
		w := b.Weight()
		for _, t := range tasks {
			if t < 0 || t >= n {
				return fmt.Errorf("core: plan assigns out-of-range task %d (n=%d)", t, n)
			}
			mass[t] += w
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return mass, nil
}

// Reliability returns, for each task index in [0, n), the reliability
// Rel(a_i, B(a_i)) = 1 - Π (1 - r_|β|) achieved by the plan.
func (p *Plan) Reliability(n int, bins BinSet) ([]float64, error) {
	mass, err := p.TransformedMass(n, bins)
	if err != nil {
		return nil, err
	}
	rel := make([]float64, n)
	for i, m := range mass {
		rel[i] = ThresholdFromTheta(m)
	}
	return rel, nil
}

// Validate checks that the plan is a feasible decomposition of the instance:
// every bin use refers to a menu bin and holds distinct tasks with in-range
// indices (never more than Cardinality of them — the run form cannot
// express an overfull use), and every task's reliability meets its
// threshold within RelTol.
func (p *Plan) Validate(in *Instance) error {
	n := in.N()
	ui := 0
	// lastUse[t] is one more than the index of the last use seen holding
	// task t, so a task met twice within use ui reads ui+1: one n-sized
	// stamp for the whole plan in place of a set per use.
	lastUse := make([]int, n)
	err := p.EachUse(func(card int, tasks []int) error {
		defer func() { ui++ }()
		if _, ok := in.Bins().ByCardinality(card); !ok {
			return fmt.Errorf("core: use %d refers to unknown bin cardinality %d", ui, card)
		}
		for _, t := range tasks {
			if t < 0 || t >= n {
				return fmt.Errorf("core: use %d assigns out-of-range task %d (n=%d)", ui, t, n)
			}
			if lastUse[t] == ui+1 {
				return fmt.Errorf("core: use %d assigns task %d twice", ui, t)
			}
			lastUse[t] = ui + 1
		}
		return nil
	})
	if err != nil {
		return err
	}
	mass, err := p.TransformedMass(n, in.Bins())
	if err != nil {
		return err
	}
	for i, m := range mass {
		if need := in.Theta(i); m < need-RelTol {
			return fmt.Errorf("core: task %d reliability %.6f below threshold %.6f",
				i, ThresholdFromTheta(m), in.Threshold(i))
		}
	}
	return nil
}

// Summary is a compact, printable description of a plan — its use vector
// {τ_l} (Definition 3) plus the totals and the cost, as in the paper's
// worked examples — and the form the service serves and stores.
type Summary struct {
	// Uses lists the uses τ_l per bin cardinality l, in ascending
	// cardinality; never nil, so an empty plan encodes "uses":[].
	Uses []CardinalityUses `json:"uses"`
	// NumUses is the total number of bin uses.
	NumUses int `json:"num_uses"`
	// NumAssignments is the total number of (task, bin) pairs.
	NumAssignments int `json:"num_assignments"`
	// Cost is the total incentive cost.
	Cost float64 `json:"cost"`
}

// CardinalityUses is one row of a Summary: Count uses of the bin of this
// Cardinality.
type CardinalityUses struct {
	Cardinality int `json:"cardinality"`
	Count       int `json:"count"`
}

// Summarize computes the plan's Summary under the given menu from run
// metadata, without expanding the plan; Uses is its one allocation.
func (p *Plan) Summarize(bins BinSet) (Summary, error) {
	cost, err := p.Cost(bins)
	if err != nil {
		return Summary{}, err
	}
	var buf [16]CardinalityUses // a plan names a few cardinalities; more spill to the heap
	counts := p.appendCounts(buf[:0])
	uses := make([]CardinalityUses, len(counts))
	copy(uses, counts)
	return Summary{
		Uses:           uses,
		NumUses:        p.NumUses(),
		NumAssignments: p.NumAssignments(),
		Cost:           cost,
	}, nil
}

// String renders the summary as "τ_l×b_l + ... = $cost" with cardinalities
// in ascending order.
func (s Summary) String() string {
	var sb strings.Builder
	for i, u := range s.Uses {
		if i > 0 {
			sb.WriteString(" + ")
		}
		fmt.Fprintf(&sb, "%d×b%d", u.Count, u.Cardinality)
	}
	if sb.Len() == 0 {
		sb.WriteString("(empty)")
	}
	fmt.Fprintf(&sb, " = $%.4f", s.Cost)
	return sb.String()
}

// LowerBoundLP returns the fractional covering lower bound on the optimal
// plan cost: each task i fractionally buys θ_i / (l·w_l) uses of the bin
// with the best cost per unit of transformed mass. This is the LP value used
// in the proof of Theorem 2 (OPT >= n · OPQ1.UC in the homogeneous case) and
// serves as the reference point for approximation-ratio tests.
func LowerBoundLP(in *Instance) float64 {
	best := math.Inf(1)
	for _, b := range in.Bins().Bins() {
		// Cost per unit transformed mass, amortized over a full bin.
		unit := b.Cost / (float64(b.Cardinality) * b.Weight())
		if unit < best {
			best = unit
		}
	}
	if math.IsInf(best, 1) {
		return 0
	}
	total := 0.0
	for i := 0; i < in.N(); i++ {
		total += in.Theta(i)
	}
	return best * total
}
