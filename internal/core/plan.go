package core

import (
	"bytes"
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
// task placements. A plan is backed either by an explicit use list (Uses,
// the legacy form every hand-built plan and decoded JSON uses) or by a
// compact block-run form (see PlanRuns) the hot-path solvers emit; in the
// run-backed case Uses stays nil and per-use views are produced lazily by
// Materialized. All read methods work identically on both forms.
type Plan struct {
	Uses []BinUse `json:"uses"`

	// runs is the compact backing of a solver-emitted plan; nil for
	// legacy plans.
	runs *PlanRuns
}

// NewRunPlan wraps a compact run-backed plan. The PlanRuns is owned by
// the returned plan and must not be mutated by the caller afterwards.
func NewRunPlan(pr *PlanRuns) *Plan { return &Plan{runs: pr} }

// Runs returns the plan's compact run backing, or nil for a legacy plan.
func (p *Plan) Runs() *PlanRuns { return p.runs }

// Materialized returns the plan's bin uses: the Uses field for a legacy
// plan, or the cached lazy expansion of the run form. The returned slice
// is shared and read-only (run-backed task lists alias the plan's arena).
// Safe for concurrent use.
func (p *Plan) Materialized() []BinUse {
	if p.runs != nil {
		return p.runs.Materialize()
	}
	return p.Uses
}

// EachUse streams the plan's bin uses in order without materializing a
// run-backed plan: the tasks slice is only valid for the duration of the
// callback and must not be retained or mutated. Iteration stops at the
// first non-nil error, which is returned.
func (p *Plan) EachUse(fn func(cardinality int, tasks []int) error) error {
	if p.runs != nil {
		return p.runs.EachUse(fn)
	}
	for i := range p.Uses {
		if err := fn(p.Uses[i].Cardinality, p.Uses[i].Tasks); err != nil {
			return err
		}
	}
	return nil
}

// MarshalJSON renders the plan in its wire form {"uses": [...]} through
// the streaming encoder, so stored job records and HTTP responses share
// one encoder and are byte-compatible across both backings.
func (p *Plan) MarshalJSON() ([]byte, error) {
	var buf bytes.Buffer
	if err := p.EncodeJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Cost returns the total incentive cost of the plan under the given menu:
// the sum of c_|β| over all bin uses β. Run-backed plans compute it from
// run metadata in the same accumulation order the expanded sum would use,
// so the two forms agree bit for bit.
func (p *Plan) Cost(bins BinSet) (float64, error) {
	if p.runs != nil {
		return p.runs.Cost(bins)
	}
	total := 0.0
	for _, u := range p.Uses {
		b, ok := bins.ByCardinality(u.Cardinality)
		if !ok {
			return 0, fmt.Errorf("core: plan uses unknown bin cardinality %d", u.Cardinality)
		}
		total += b.Cost
	}
	return total, nil
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

// Counts returns the number of uses per bin cardinality — the {τ_l} vector
// of Definition 3 — arithmetically from run metadata when run-backed.
func (p *Plan) Counts() map[int]int {
	if p.runs != nil {
		return p.runs.Counts()
	}
	out := make(map[int]int)
	for _, u := range p.Uses {
		out[u.Cardinality]++
	}
	return out
}

// NumUses returns the total number of bin uses (crowd-worker batches).
func (p *Plan) NumUses() int {
	if p.runs != nil {
		return p.runs.NumUses()
	}
	return len(p.Uses)
}

// NumAssignments returns the total number of (task, bin) assignments.
func (p *Plan) NumAssignments() int {
	if p.runs != nil {
		return p.runs.NumAssignments()
	}
	n := 0
	for _, u := range p.Uses {
		n += len(u.Tasks)
	}
	return n
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
// every bin use refers to a menu bin, holds at most Cardinality distinct
// tasks with in-range indices, and every task's reliability meets its
// threshold within RelTol.
func (p *Plan) Validate(in *Instance) error {
	n := in.N()
	ui := 0
	err := p.EachUse(func(card int, tasks []int) error {
		defer func() { ui++ }()
		b, ok := in.Bins().ByCardinality(card)
		if !ok {
			return fmt.Errorf("core: use %d refers to unknown bin cardinality %d", ui, card)
		}
		if len(tasks) > b.Cardinality {
			return fmt.Errorf("core: use %d holds %d tasks > cardinality %d", ui, len(tasks), b.Cardinality)
		}
		seen := make(map[int]struct{}, len(tasks))
		for _, t := range tasks {
			if t < 0 || t >= n {
				return fmt.Errorf("core: use %d assigns out-of-range task %d (n=%d)", ui, t, n)
			}
			if _, dup := seen[t]; dup {
				return fmt.Errorf("core: use %d assigns task %d twice", ui, t)
			}
			seen[t] = struct{}{}
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

// Merge appends the uses of other to p. It is used to combine per-partition
// plans in the heterogeneous solver. Merging demotes a run-backed receiver
// to the legacy form (other's runs are expanded with fresh storage); the
// run-native combiner is MergePlans / MergePlanRuns.
func (p *Plan) Merge(other *Plan) {
	if p.runs != nil {
		p.Uses = p.runs.Expand()
		p.runs = nil
	}
	if other.runs != nil {
		p.Uses = append(p.Uses, other.runs.Expand()...)
		return
	}
	p.Uses = append(p.Uses, other.Uses...)
}

// empty reports whether the plan holds no uses in either backing.
func (p *Plan) empty() bool {
	return p == nil || (len(p.Uses) == 0 && (p.runs == nil || len(p.runs.Runs) == 0))
}

// MergePlans combines plans (nil entries skipped) into one new plan, in
// order. Cost is additive: the merged plan's cost is the sum of the parts'
// costs, and when the parts cover disjoint task sets against a shared menu
// the merged plan is feasible iff every part is. Task storage is copied, so
// mutating the merged plan (e.g. OffsetTasks) never touches the inputs —
// which also makes MergePlans(p) the canonical deep copy. When every
// non-empty input is run-backed the merge stays in run form (arenas
// concatenated, run offsets rebased — no expansion); any legacy input
// demotes the whole merge to the legacy copying path. The service layer
// uses it to reassemble per-shard and per-partition plans.
func MergePlans(plans ...*Plan) *Plan {
	runsOnly := false
	for _, p := range plans {
		if p.empty() {
			continue
		}
		if p.runs == nil {
			runsOnly = false
			break
		}
		runsOnly = true
	}
	if runsOnly {
		prs := make([]*PlanRuns, 0, len(plans))
		for _, p := range plans {
			if !p.empty() {
				prs = append(prs, p.runs)
			}
		}
		return NewRunPlan(MergePlanRuns(prs...))
	}
	total := 0
	for _, p := range plans {
		if p != nil {
			total += p.NumUses()
		}
	}
	out := &Plan{Uses: make([]BinUse, 0, total)}
	for _, p := range plans {
		if p == nil {
			continue
		}
		if p.runs != nil {
			out.Uses = append(out.Uses, p.runs.Expand()...)
			continue
		}
		for _, u := range p.Uses {
			out.Uses = append(out.Uses, BinUse{
				Cardinality: u.Cardinality,
				Tasks:       append([]int(nil), u.Tasks...),
			})
		}
	}
	return out
}

// OffsetTasks shifts every task identifier in the plan by delta. A caller
// that solves a sub-problem in its own local index space 0..n-1 (the service
// shards instead pass global ids through the solver, so they never need
// this) offsets the resulting plan to its base index before merging, so the
// combined plan addresses the global task space. A run-backed plan offsets
// its arena in one pass. The caller must own the plan exclusively.
func (p *Plan) OffsetTasks(delta int) {
	if p.runs != nil {
		p.runs.OffsetTasks(delta)
		return
	}
	if delta == 0 {
		return
	}
	for ui := range p.Uses {
		tasks := p.Uses[ui].Tasks
		for ti := range tasks {
			tasks[ti] += delta
		}
	}
}

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
