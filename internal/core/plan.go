package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"
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

// Plan is a decomposition plan DP_T: a multiset of bin uses with concrete
// task placements, held in compact block-run form (see PlanRuns). The zero
// Plan is the empty plan. []BinUse is only an edge type: Materialized,
// EachUse and the encoders produce it, PlanFromUses and UnmarshalJSON
// consume it.
type Plan struct {
	// runs is nil only in the zero Plan.
	runs *PlanRuns
}

// NewRunPlan wraps a compact run-form plan. The PlanRuns is owned by the
// returned plan and must not be mutated by the caller afterwards.
func NewRunPlan(pr *PlanRuns) *Plan { return &Plan{runs: pr} }

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
	out := &PlanRuns{Arena: make([]int, 0, tasks)}
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
	return NewRunPlan(out), nil
}

// Runs returns the plan's run form; never nil (the zero Plan yields an
// empty PlanRuns).
func (p *Plan) Runs() *PlanRuns {
	if p.runs == nil {
		return &PlanRuns{}
	}
	return p.runs
}

// Materialized returns the plan's bin uses, expanded on first call and
// cached. The returned slice is shared and read-only (task lists alias
// the plan's arena). Safe for concurrent use.
func (p *Plan) Materialized() []BinUse { return p.Runs().Materialize() }

// EachUse streams the plan's bin uses in order without materializing
// them: the tasks slice is only valid for the duration of the callback and
// must not be retained or mutated. Iteration stops at the first non-nil
// error, which is returned.
func (p *Plan) EachUse(fn func(cardinality int, tasks []int) error) error {
	return p.Runs().EachUse(fn)
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
// received plan with a malformed use is rejected at decode.
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

// Cost returns the total incentive cost of the plan under the given menu:
// the sum of c_|β| over all bin uses β, accumulated from run metadata in
// the order the per-use sum would add, so the two agree bit for bit.
func (p *Plan) Cost(bins BinSet) (float64, error) { return p.Runs().Cost(bins) }

// MustCost is Cost that panics on an unknown cardinality; for plans that
// were already validated against the same menu.
func (p *Plan) MustCost(bins BinSet) float64 {
	c, err := p.Cost(bins)
	if err != nil {
		panic(err)
	}
	return c
}

// Counts returns the number of uses per bin cardinality — the {τ_l} vector
// of Definition 3.
func (p *Plan) Counts() map[int]int { return p.Runs().Counts() }

// NumUses returns the total number of bin uses (crowd-worker batches).
func (p *Plan) NumUses() int { return p.Runs().NumUses() }

// NumAssignments returns the total number of (task, bin) assignments.
func (p *Plan) NumAssignments() int { return p.Runs().NumAssignments() }

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

// MergePlans combines plans (nil entries skipped) into one new plan, in
// order. Cost is additive: the merged plan's cost is the sum of the parts'
// costs, and when the parts cover disjoint task sets against a shared menu
// the merged plan is feasible iff every part is. The merged plan shares no
// task storage with the inputs (see MergePlanRuns), so mutating it (e.g.
// OffsetTasks) never touches them — which also makes MergePlans(p) the
// canonical deep copy.
func MergePlans(plans ...*Plan) *Plan {
	prs := make([]*PlanRuns, 0, len(plans))
	for _, p := range plans {
		if p != nil {
			prs = append(prs, p.runs)
		}
	}
	return NewRunPlan(MergePlanRuns(prs...))
}

// OffsetTasks shifts every task identifier in the plan by delta. A caller
// that solves a sub-problem in its own local index space 0..n-1 (a cluster
// span) offsets the resulting plan to its base index before merging, so
// the combined plan addresses the global task space — in O(1) when the
// plan's arena is an identity one (see PlanRuns). The caller must own the
// plan exclusively.
func (p *Plan) OffsetTasks(delta int) { p.Runs().OffsetTasks(delta) }

// Summary is a compact, printable description of a plan: uses per
// cardinality plus the total cost, as in the paper's worked examples.
type Summary struct {
	// UsesByCardinality maps bin cardinality l to the number of uses τ_l.
	UsesByCardinality map[int]int
	// NumUses is the total number of bin uses.
	NumUses int
	// NumAssignments is the total number of (task, bin) pairs.
	NumAssignments int
	// Cost is the total incentive cost.
	Cost float64
}

// Summarize computes the plan's Summary under the given menu.
func (p *Plan) Summarize(bins BinSet) (Summary, error) {
	cost, err := p.Cost(bins)
	if err != nil {
		return Summary{}, err
	}
	return Summary{
		UsesByCardinality: p.Counts(),
		NumUses:           p.NumUses(),
		NumAssignments:    p.NumAssignments(),
		Cost:              cost,
	}, nil
}

// String renders the summary as "τ_l×b_l + ... = $cost" with cardinalities
// in ascending order.
func (s Summary) String() string {
	cards := make([]int, 0, len(s.UsesByCardinality))
	for l := range s.UsesByCardinality {
		cards = append(cards, l)
	}
	sort.Ints(cards)
	out := ""
	for i, l := range cards {
		if i > 0 {
			out += " + "
		}
		out += fmt.Sprintf("%d×b%d", s.UsesByCardinality[l], l)
	}
	if out == "" {
		out = "(empty)"
	}
	return fmt.Sprintf("%s = $%.4f", out, s.Cost)
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
