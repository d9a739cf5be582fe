package core

import (
	"fmt"
	"math"
	"slices"
	"sync"
)

// This file holds the compact block-run plan representation. Algorithm 3's
// output is extremely regular — a handful of segments, each k identical full
// blocks of one combination, plus at most one padded block — so a plan is
// stored as run metadata over a single task-id arena: cost, use counts and
// summaries are computed arithmetically from the runs, iteration streams
// uses without materializing them, and the []BinUse view is produced only
// where a caller truly needs per-use task lists. When the ids
// are a contiguous range — every solve over tasks base..base+n-1 — the
// arena itself is implicit (an identity arena: slot i holds id Base+i), so
// such a plan is O(runs) memory at any n.

// RunPart is one (cardinality, per-task multiplicity) component of a
// RunComb: within one block, every task is assigned Count times to bins of
// the given cardinality.
type RunPart struct {
	// Cardinality is the bin size |β| the part assigns tasks to.
	Cardinality int
	// Count is n_k — how many times each task of the block lands in a bin
	// of this cardinality.
	Count int
}

// RunComb is the block recipe a run applies: the paper's combination
// Comb = {n_k1 × b_k1, ...} reduced to what expansion needs. One full
// application covers exactly BlockLen tasks and uses
// Count·BlockLen/Cardinality bins per part, in Parts order. RunCombs are
// shared read-only across runs and plans; an OPQ queue builds one per
// element, once, and every plan solved over that queue points at them.
type RunComb struct {
	// Parts lists the components in ascending menu order. Every part's
	// Cardinality must divide BlockLen.
	Parts []RunPart
	// BlockLen is the combination's natural block size (the LCM of the
	// used cardinalities).
	BlockLen int
}

// UsesPerBlock returns the number of bin uses one block application emits.
func (c *RunComb) UsesPerBlock() int {
	n := 0
	for _, p := range c.Parts {
		n += p.Count * (c.BlockLen / p.Cardinality)
	}
	return n
}

// assignsPerTask returns Σ n_k, the number of bins each full-block task
// lands in.
func (c *RunComb) assignsPerTask() int {
	n := 0
	for _, p := range c.Parts {
		n += p.Count
	}
	return n
}

// BlockRun is one run of a plan: Blocks consecutive full applications of
// Comb over Arena[Off : Off+Len] (Len = Blocks·BlockLen), or — when Blocks
// is zero — a single padded application over Len < BlockLen remainder
// tasks (Algorithm 3's over-provisioned final step: the remainder cycles
// to fill the block, duplicate tasks within one bin are dropped, the full
// block cost is paid).
type BlockRun struct {
	// Comb is the applied combination; shared and read-only.
	Comb *RunComb
	// Blocks counts full block applications; 0 marks a padded run.
	Blocks int
	// Off and Len locate the run's task ids in the owning plan's arena
	// (explicit or identity).
	Off, Len int
}

// Padded reports whether the run is a padded remainder application.
func (r *BlockRun) Padded() bool { return r.Blocks == 0 }

// check rejects structurally malformed runs (hand-built plans are
// public API; solver-emitted runs always pass). arenaLen bounds the
// run's window.
func (r *BlockRun) check(arenaLen int) error {
	if r.Comb == nil {
		return fmt.Errorf("core: run has no combination")
	}
	if r.Comb.BlockLen <= 0 {
		return fmt.Errorf("core: run combination has block length %d", r.Comb.BlockLen)
	}
	for _, p := range r.Comb.Parts {
		if p.Cardinality <= 0 || p.Count < 0 || r.Comb.BlockLen%p.Cardinality != 0 {
			return fmt.Errorf("core: run part (cardinality %d, count %d) malformed for block length %d",
				p.Cardinality, p.Count, r.Comb.BlockLen)
		}
	}
	if r.Off < 0 || r.Len < 0 || r.Off+r.Len > arenaLen {
		return fmt.Errorf("core: run window [%d,%d) outside the arena (len %d)", r.Off, r.Off+r.Len, arenaLen)
	}
	if r.Padded() {
		if r.Len < 1 || r.Len >= r.Comb.BlockLen {
			return fmt.Errorf("core: padded run covers %d tasks, want 1..%d", r.Len, r.Comb.BlockLen-1)
		}
		return nil
	}
	if r.Blocks < 0 || r.Len != r.Blocks*r.Comb.BlockLen {
		return fmt.Errorf("core: full run of %d blocks covers %d tasks, want %d",
			r.Blocks, r.Len, r.Blocks*r.Comb.BlockLen)
	}
	return nil
}

// uses returns the number of bin uses the run expands to. A padded run
// emits exactly as many uses as a full block — only task lists shrink.
func (r *BlockRun) uses() int {
	per := r.Comb.UsesPerBlock()
	if r.Padded() {
		return per
	}
	return r.Blocks * per
}

// assignments returns the number of (task, bin) pairs the run expands to.
// For a padded run over rem tasks, a use of cardinality card holds
// min(card, rem) distinct tasks: block positions are consecutive integers
// modulo rem, so a window of card positions covers min(card, rem) distinct
// remainder tasks.
func (r *BlockRun) assignments() int {
	if !r.Padded() {
		return r.Len * r.Comb.assignsPerTask()
	}
	n := 0
	for _, p := range r.Comb.Parts {
		m := p.Cardinality
		if m > r.Len {
			m = r.Len
		}
		n += p.Count * (r.Comb.BlockLen / p.Cardinality) * m
	}
	return n
}

// Plan is a decomposition plan DP_T: a multiset of bin uses with concrete
// task placements, held in compact block-run form — run metadata over one
// shared task-id arena. It expands to exactly the bin-use sequence
// Algorithm 3's per-use expansion emits — same uses, same order, same task
// ids — which is what keeps every cost computed from it bit-identical to
// the per-use accumulation. The zero Plan is the empty plan. []BinUse is
// only an edge type: Materialized, EachUse and the encoders produce it,
// PlanFromUses and UnmarshalJSON consume it.
//
// The arena is either explicit (Arena non-nil: slot i holds Arena[i]) or an
// identity arena (Arena nil: N slots, slot i holds id Base+i), which costs
// nothing to build or to merge with an abutting one. Both expand to the
// same bytes for the same ids.
//
// A Plan is read-only after construction, and every method is safe for
// concurrent use. Arena ids must be distinct (the solvers' precondition,
// enforced at the service boundary): the padded expansion derives
// within-bin dedup from block positions, so a duplicate id in the
// remainder would occupy two slots of one bin — exactly the invalid plan
// duplicate ids have always produced in full blocks. Hand-built plans are
// validated structurally by EachUse/Cost (and Validate); solver-emitted
// runs always pass.
type Plan struct {
	// Arena holds every task id the plan addresses; runs reference
	// contiguous windows of it. Nil selects the identity arena below.
	Arena []int
	// Base and N describe the identity arena, read only while Arena is
	// nil: N slots, slot i holding task id Base+i.
	Base, N int
	// Runs is the plan's run sequence, in emission order.
	Runs []BlockRun
}

// NewRunPlan returns p unchanged: a Plan is its run form.
//
// Deprecated: use the *Plan directly. NewRunPlan is kept only for the
// benchmark module, which moves off it with ROADMAP.md item 1(a).
func NewRunPlan(p *Plan) *Plan { return p }

// NumTasks returns the number of task ids the plan covers: the arena's
// length, explicit or identity.
func (p *Plan) NumTasks() int {
	if p.Arena != nil {
		return len(p.Arena)
	}
	return p.N
}

// appendSlots appends the ids held by arena slots [off, off+n) to dst,
// writing an identity arena's out.
func (p *Plan) appendSlots(dst []int, off, n int) []int {
	if p.Arena != nil {
		return append(dst, p.Arena[off:off+n]...)
	}
	for id := p.Base + off; n > 0; n-- {
		dst = append(dst, id)
		id++
	}
	return dst
}

// NumUses returns the total number of bin uses (crowd-worker batches),
// computed from run metadata without expansion.
func (p *Plan) NumUses() int {
	n := 0
	for i := range p.Runs {
		n += p.Runs[i].uses()
	}
	return n
}

// NumAssignments returns the total number of (task, bin) assignments,
// computed from run metadata without expansion.
func (p *Plan) NumAssignments() int {
	n := 0
	for i := range p.Runs {
		n += p.Runs[i].assignments()
	}
	return n
}

// appendCounts appends the plan's uses per bin cardinality (the {τ_l}
// vector of Definition 3) to dst, one row per cardinality the runs name,
// in ascending cardinality, counted from run metadata without expansion
// or a map. A plan names a handful of cardinalities, so each part finds
// its row by a linear scan.
func (p *Plan) appendCounts(dst []CardinalityUses) []CardinalityUses {
	start := len(dst)
	for i := range p.Runs {
		r := &p.Runs[i]
		blocks := r.Blocks
		if r.Padded() {
			blocks = 1
		}
		for _, part := range r.Comb.Parts {
			uses := blocks * part.Count * (r.Comb.BlockLen / part.Cardinality)
			j := start
			for j < len(dst) && dst[j].Cardinality < part.Cardinality {
				j++
			}
			if j < len(dst) && dst[j].Cardinality == part.Cardinality {
				dst[j].Count += uses
				continue
			}
			dst = slices.Insert(dst, j, CardinalityUses{Cardinality: part.Cardinality, Count: uses})
		}
	}
	return dst
}

// Cost returns the total incentive cost of the plan under the given menu:
// the sum of c_|β| over all bin uses β. The result is bit-identical to the
// left-to-right float sum in the expanded plan's use order — the exact
// cost-parity invariants (clustered == single-node, batched == solo,
// planned == spent) compare floats with ==, so the arithmetic must not
// round differently. It touches only run metadata, in O(runs) time and
// without allocating (up to 16 parts per combination): no uses are
// materialized, the menu is consulted once per run part, and whole blocks
// are added at once where blockJump can prove the per-use sum's rounding.
func (p *Plan) Cost(bins BinSet) (float64, error) {
	total := 0.0
	var buf [16]float64
	costs := buf[:0] // per-part bin costs, resolved once per run
	for i := range p.Runs {
		r := &p.Runs[i]
		if err := r.check(p.NumTasks()); err != nil {
			return 0, err
		}
		blocks := r.Blocks
		if r.Padded() {
			blocks = 1
		}
		costs = costs[:0]
		for _, part := range r.Comb.Parts {
			b, ok := bins.ByCardinality(part.Cardinality)
			if !ok {
				return 0, fmt.Errorf("core: plan uses unknown bin cardinality %d", part.Cardinality)
			}
			costs = append(costs, b.Cost)
		}
		for b := 0; b < blocks; {
			j, sum := blockJump(total, r.Comb, costs, blocks-b)
			if j > 0 {
				total, b = sum, b+j
				continue
			}
			// One block use by use: block-major, then part order — the
			// expansion's use order exactly.
			for pi, part := range r.Comb.Parts {
				per := part.Count * (r.Comb.BlockLen / part.Cardinality)
				c := costs[pi]
				for u := 0; u < per; u++ {
					total += c
				}
			}
			b++
		}
	}
	return total, nil
}

// blockJump adds up to maxBlocks whole blocks of comb (part costs costs)
// to total at once, and returns how many it added and the sum after them;
// 0 blocks means the caller adds the next block use by use.
//
// While a sum stays in one binade its ulp u is fixed and it is S units of
// u, S an integer in [2^52, 2^53). Adding c ≤ sum/2 there rounds to exactly
// S + round(c/u) units unless c/u is a tie (fraction ½, which rounds to
// even and so depends on S). One block therefore adds a constant B units,
// and j blocks add j·B exactly as long as S + j·B stays below 2^53 — kept
// at most 2^53 − 2, so no exact sum on the way reaches the next binade's
// coarser grid. B = 0 means every add rounds away: the rest of the run
// adds nothing. Anything outside those conditions — a zero, subnormal or
// non-finite sum, a part costing more than half the sum, a tie, a block
// too large for the binade's room — returns 0.
func blockJump(total float64, comb *RunComb, costs []float64, maxBlocks int) (int, float64) {
	bits := math.Float64bits(total)
	e := int(bits >> 52 & 0x7ff)
	if !(total > 0) || e == 0 || e == 0x7ff {
		return 0, total
	}
	const top = 1<<53 - 2
	s := int64(bits&(1<<52-1) | 1<<52)
	if s > top {
		return 0, total
	}
	room := top - s
	exp := e - 1075 // total = s·2^exp
	half := total / 2
	var units int64 // B: the units one block adds
	for pi, part := range comb.Parts {
		c := costs[pi]
		if !(c <= half) {
			return 0, total
		}
		q := math.Ldexp(c, -exp) // c/u, exact: a power-of-two scaling below 2^52
		f := math.Floor(q)
		n := int64(f)
		switch frac := q - f; {
		case frac == 0.5:
			return 0, total
		case frac > 0.5:
			n++
		}
		per := int64(part.Count * (comb.BlockLen / part.Cardinality))
		if n > 0 && per > room/n {
			return 0, total
		}
		if units += per * n; units > room {
			return 0, total
		}
	}
	if units == 0 {
		return maxBlocks, total
	}
	j := min(int64(maxBlocks), room/units)
	return int(j), math.Ldexp(float64(s+j*units), exp)
}

// useSpan locates one bin use in the arena: the use holds the n slots from
// off and then — only where a padded use's cycle over its run's window
// passes the window's end — the wrapped slots from wrapOff. A full-block
// use never wraps.
type useSpan struct {
	card             int
	off, n           int
	wrapOff, wrapped int
}

// eachSpan visits the plan's bin uses in expansion order — run by run,
// block-major, then part order — as arena spans; it is the one walk under
// EachUse, Materialized and the encoders. It stops at the first non-nil
// error, and reports a structurally malformed run (hand-built plans only)
// as an error rather than walking it.
//
// In a padded run over the remainder window rem, block position i holds
// task rem[i%len(rem)] and a use over positions [start, start+card) keeps
// the first occurrence of each distinct task: positions are consecutive
// integers modulo len(rem), so those are the min(card, len(rem)) slots
// cycling from start%len(rem) — index arithmetic in place of a per-use
// dedup map, with the same output (a map would also keep tasks in
// first-occurrence position order).
func (p *Plan) eachSpan(visit func(useSpan) error) error {
	for i := range p.Runs {
		r := &p.Runs[i]
		if err := r.check(p.NumTasks()); err != nil {
			return err
		}
		L, blocks := r.Comb.BlockLen, r.Blocks
		if r.Padded() {
			blocks = 1
		}
		for b := 0; b < blocks; b++ {
			for _, part := range r.Comb.Parts {
				card := part.Cardinality
				for rep := 0; rep < part.Count; rep++ {
					for start := 0; start < L; start += card {
						s := useSpan{card: card, off: r.Off + b*L + start, n: card}
						if r.Padded() {
							first, m := start%r.Len, min(card, r.Len)
							s.off, s.wrapOff = r.Off+first, r.Off
							s.wrapped = max(0, first+m-r.Len)
							s.n = m - s.wrapped
						}
						if err := visit(s); err != nil {
							return err
						}
					}
				}
			}
		}
	}
	return nil
}

// scratchPool pools the task-list buffer of an EachUse pass, so streaming
// over a plan allocates nothing per use.
var scratchPool = sync.Pool{New: func() any { return new([]int) }}

// EachUse streams the plan's bin uses in expansion order without
// materializing them: a use that is one window of an explicit arena passes
// that window (zero copy), any other — identity arena, wrapped padded use —
// its ids written into one pooled buffer. The tasks slice is only valid for
// the duration of the callback and must not be retained or mutated.
// Iteration stops at the first non-nil error, which is returned; a
// structurally malformed run (hand-built plans only) is reported as an
// error rather than iterated, which is what lets Validate reject such
// plans cleanly.
func (p *Plan) EachUse(fn func(cardinality int, tasks []int) error) error {
	buf := scratchPool.Get().(*[]int)
	defer scratchPool.Put(buf)
	return p.eachSpan(func(s useSpan) error {
		if p.Arena != nil && s.wrapped == 0 {
			return fn(s.card, p.Arena[s.off:s.off+s.n])
		}
		*buf = p.appendSlots(p.appendSlots((*buf)[:0], s.off, s.n), s.wrapOff, s.wrapped)
		return fn(s.card, *buf)
	})
}

// Materialized builds the plan's []BinUse view afresh on each call: one
// []BinUse for every use, task lists aliasing the arena (zero copy; an
// identity arena is written out, once per call, to be aliased) except
// those of wrapped padded uses, which share one backing array. The result
// is read-only — it shares storage with the arena. Returns nil for an
// empty plan, whose JSON is "uses":null.
func (p *Plan) Materialized() []BinUse {
	padLen := 0 // an upper bound: pad must not move once aliased
	for i := range p.Runs {
		r := &p.Runs[i]
		if err := r.check(p.NumTasks()); err != nil {
			// No error return here; a malformed hand-built plan is a
			// programmer error — fail loudly instead of dividing by
			// zero deep in the expansion. Validate / EachUse are the
			// error-returning rejection paths.
			panic(err)
		}
		if r.Padded() {
			padLen += r.assignments()
		}
	}
	total := p.NumUses()
	if total == 0 {
		return nil
	}
	arena := p.Arena
	if arena == nil {
		arena = p.appendSlots(make([]int, 0, p.N), 0, p.N)
	}
	uses := make([]BinUse, 0, total)
	pad := make([]int, 0, padLen)
	_ = p.eachSpan(func(s useSpan) error { // every run passed check above
		tasks := arena[s.off : s.off+s.n : s.off+s.n]
		if s.wrapped > 0 {
			from := len(pad)
			pad = append(append(pad, tasks...), arena[s.wrapOff:s.wrapOff+s.wrapped]...)
			tasks = pad[from:len(pad):len(pad)]
		}
		uses = append(uses, BinUse{Cardinality: s.card, Tasks: tasks})
		return nil
	})
	return uses
}

// MergePlans combines plans (nil and empty entries skipped) into one new
// plan, in order, with run offsets rebased and without expanding anything:
// the merged expansion order is the inputs' expansion orders in sequence.
// Cost is additive: the merged plan's cost is the sum of the parts' costs,
// and when the parts cover disjoint task sets against a shared menu the
// merged plan is feasible iff every part is. When every part is an
// identity arena starting where the previous one ended, so is the result,
// at the first part's base and with nothing copied; otherwise the ids are
// written into a single new explicit arena. Either way the merged plan
// shares no task storage with the inputs, which also makes
// MergePlans(p) the canonical deep copy.
func MergePlans(plans ...*Plan) *Plan {
	tasks, runs := 0, 0
	identity, base := true, 0
	for _, p := range plans {
		if p == nil {
			continue
		}
		runs += len(p.Runs)
		if p.NumTasks() == 0 {
			continue
		}
		if tasks == 0 {
			base = p.Base // the first non-empty part's only
		}
		if p.Arena != nil || p.Base != base+tasks {
			identity = false
		}
		tasks += p.NumTasks()
	}
	out := &Plan{Runs: make([]BlockRun, 0, runs)}
	if identity {
		out.Base, out.N = base, tasks
	} else {
		out.Arena = make([]int, 0, tasks)
	}
	off := 0
	for _, p := range plans {
		if p == nil {
			continue
		}
		for _, r := range p.Runs {
			r.Off += off
			out.Runs = append(out.Runs, r)
		}
		off += p.NumTasks()
		if !identity {
			out.Arena = p.appendSlots(out.Arena, 0, p.NumTasks())
		}
	}
	return out
}
