package core

import (
	"fmt"
	"sync"
)

// This file holds the compact block-run plan representation. Algorithm 3's
// output is extremely regular — a handful of segments, each k identical full
// blocks of one combination, plus at most one padded block — so a plan is
// stored as run metadata over a single task-id arena: cost, use counts and
// summaries are computed arithmetically from the runs, iteration streams
// uses without materializing them, and the []BinUse view is produced once,
// lazily, only where a caller truly needs per-use task lists. When the ids
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
// shared read-only across runs and plans; the solver builds one per
// distinct combination it applies.
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

// check rejects structurally malformed runs (hand-built PlanRuns are
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

// PlanRuns is a decomposition plan in compact block-run form: run metadata
// over one shared task-id arena. It expands to exactly the bin-use
// sequence Algorithm 3's per-use expansion emits — same uses, same order,
// same task ids — which is what keeps every cost computed from it
// bit-identical to the per-use accumulation.
//
// The arena is either explicit (Arena non-nil: slot i holds Arena[i]) or an
// identity arena (Arena nil: N slots, slot i holds id Base+i), which costs
// nothing to build, offset or merge with an abutting one. Both expand to
// the same bytes for the same ids.
//
// A PlanRuns is read-only after construction except for OffsetTasks, which
// requires exclusive ownership. Materialize is safe for concurrent use.
// Arena ids must be distinct (the solvers' precondition, enforced at the
// service boundary): the padded expansion derives within-bin dedup from
// block positions, so a duplicate id in the remainder would occupy two
// slots of one bin — exactly the invalid plan duplicate ids have always
// produced in full blocks. Hand-built plans are validated structurally by
// EachUse/Cost (and Plan.Validate); solver-emitted runs always pass.
type PlanRuns struct {
	// Arena holds every task id the plan addresses; runs reference
	// contiguous windows of it. Nil selects the identity arena below.
	Arena []int
	// Base and N describe the identity arena, read only while Arena is
	// nil: N slots, slot i holding task id Base+i.
	Base, N int
	// Runs is the plan's run sequence, in emission order.
	Runs []BlockRun

	// mat caches the lazily materialized []BinUse view. Uses alias
	// windows of Arena — or of mat.ids, the identity arena written out —
	// with no copy; padded uses whose cycle wraps live in mat.pad.
	// OffsetTasks keeps a done materialization coherent through both.
	mat struct {
		once sync.Once
		uses []BinUse
		ids  []int
		pad  []int
	}
}

// NumTasks returns the number of task ids the plan covers: the arena's
// length, explicit or identity.
func (pr *PlanRuns) NumTasks() int {
	if pr.Arena != nil {
		return len(pr.Arena)
	}
	return pr.N
}

// appendSlots appends the ids held by arena slots [off, off+n) to dst,
// writing an identity arena's out.
func (pr *PlanRuns) appendSlots(dst []int, off, n int) []int {
	if pr.Arena != nil {
		return append(dst, pr.Arena[off:off+n]...)
	}
	for id := pr.Base + off; n > 0; n-- {
		dst = append(dst, id)
		id++
	}
	return dst
}

// NumUses returns the total number of bin uses, computed from run
// metadata without expansion.
func (pr *PlanRuns) NumUses() int {
	n := 0
	for i := range pr.Runs {
		n += pr.Runs[i].uses()
	}
	return n
}

// NumAssignments returns the total number of (task, bin) assignments,
// computed from run metadata without expansion.
func (pr *PlanRuns) NumAssignments() int {
	n := 0
	for i := range pr.Runs {
		n += pr.Runs[i].assignments()
	}
	return n
}

// Counts returns the number of uses per bin cardinality (the {τ_l} vector
// of Definition 3), computed from run metadata without expansion.
func (pr *PlanRuns) Counts() map[int]int {
	out := make(map[int]int)
	for i := range pr.Runs {
		r := &pr.Runs[i]
		blocks := r.Blocks
		if r.Padded() {
			blocks = 1
		}
		for _, p := range r.Comb.Parts {
			out[p.Cardinality] += blocks * p.Count * (r.Comb.BlockLen / p.Cardinality)
		}
	}
	return out
}

// Cost returns the plan's total incentive cost under the menu. The
// accumulation replicates the expanded plan's use order add for add, so
// the result is bit-identical to the per-use sum — the exact cost-parity
// invariants (clustered == single-node, batched == solo) compare floats with
// ==, so the arithmetic must not round differently. The
// loop touches only run metadata: no uses are materialized and the menu
// is consulted once per run part, not once per use.
func (pr *PlanRuns) Cost(bins BinSet) (float64, error) {
	total := 0.0
	var costs []float64 // per-part bin costs, resolved once per run
	for i := range pr.Runs {
		r := &pr.Runs[i]
		if err := r.check(pr.NumTasks()); err != nil {
			return 0, err
		}
		blocks := r.Blocks
		if r.Padded() {
			blocks = 1
		}
		costs = costs[:0]
		for _, p := range r.Comb.Parts {
			b, ok := bins.ByCardinality(p.Cardinality)
			if !ok {
				return 0, fmt.Errorf("core: plan uses unknown bin cardinality %d", p.Cardinality)
			}
			costs = append(costs, b.Cost)
		}
		// Block-major, then part order — the expansion's use order exactly.
		for b := 0; b < blocks; b++ {
			for pi, p := range r.Comb.Parts {
				per := p.Count * (r.Comb.BlockLen / p.Cardinality)
				c := costs[pi]
				for u := 0; u < per; u++ {
					total += c
				}
			}
		}
	}
	return total, nil
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
// EachUse, Materialize and the encoders. It stops at the first non-nil
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
func (pr *PlanRuns) eachSpan(visit func(useSpan) error) error {
	for i := range pr.Runs {
		r := &pr.Runs[i]
		if err := r.check(pr.NumTasks()); err != nil {
			return err
		}
		L, blocks := r.Comb.BlockLen, r.Blocks
		if r.Padded() {
			blocks = 1
		}
		for b := 0; b < blocks; b++ {
			for _, p := range r.Comb.Parts {
				card := p.Cardinality
				for rep := 0; rep < p.Count; rep++ {
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
// error rather than iterated, which is what lets Plan.Validate reject such
// plans cleanly.
func (pr *PlanRuns) EachUse(fn func(cardinality int, tasks []int) error) error {
	buf := scratchPool.Get().(*[]int)
	defer scratchPool.Put(buf)
	return pr.eachSpan(func(s useSpan) error {
		if pr.Arena != nil && s.wrapped == 0 {
			return fn(s.card, pr.Arena[s.off:s.off+s.n])
		}
		*buf = pr.appendSlots(pr.appendSlots((*buf)[:0], s.off, s.n), s.wrapOff, s.wrapped)
		return fn(s.card, *buf)
	})
}

// Materialize returns the plan's []BinUse view, built on first call and
// cached: one []BinUse for every use, task lists aliasing the arena (zero
// copy; an identity arena is written out once, into the cache, to be
// aliased) except those of wrapped padded uses, which share one backing
// array. The result is read-only — it shares storage with the arena — and
// safe for concurrent use. Returns nil for an empty plan, whose JSON is
// "uses":null.
func (pr *PlanRuns) Materialize() []BinUse {
	pr.mat.once.Do(func() {
		padLen := 0 // an upper bound: pad must not move once aliased
		for i := range pr.Runs {
			r := &pr.Runs[i]
			if err := r.check(pr.NumTasks()); err != nil {
				// No error return here; a malformed hand-built plan is a
				// programmer error — fail loudly instead of dividing by
				// zero deep in the expansion. Plan.Validate / EachUse are
				// the error-returning rejection paths.
				panic(err)
			}
			if r.Padded() {
				padLen += r.assignments()
			}
		}
		total := pr.NumUses()
		if total == 0 {
			return
		}
		arena := pr.Arena
		if arena == nil {
			pr.mat.ids = pr.appendSlots(make([]int, 0, pr.N), 0, pr.N)
			arena = pr.mat.ids
		}
		uses := make([]BinUse, 0, total)
		pad := make([]int, 0, padLen)
		_ = pr.eachSpan(func(s useSpan) error { // every run passed check above
			tasks := arena[s.off : s.off+s.n : s.off+s.n]
			if s.wrapped > 0 {
				from := len(pad)
				pad = append(append(pad, tasks...), arena[s.wrapOff:s.wrapOff+s.wrapped]...)
				tasks = pad[from:len(pad):len(pad)]
			}
			uses = append(uses, BinUse{Cardinality: s.card, Tasks: tasks})
			return nil
		})
		pr.mat.uses = uses
		pr.mat.pad = pad
	})
	return pr.mat.uses
}

// OffsetTasks shifts every task id in the plan by delta: O(1) for an
// identity arena (the base moves), one pass over an explicit one. The
// caller must own the plan exclusively: the arena may be shared with a
// cached materialization (kept coherent here) but must not be shared with
// other live plans.
func (pr *PlanRuns) OffsetTasks(delta int) {
	if delta == 0 {
		return
	}
	if pr.Arena == nil {
		pr.Base += delta
	}
	for _, ids := range [][]int{pr.Arena, pr.mat.ids, pr.mat.pad} {
		for i := range ids {
			ids[i] += delta
		}
	}
}

// MergePlanRuns concatenates plans in run form (nil and empty entries
// skipped) into one independent plan with run offsets rebased, so mutating
// the merged plan (e.g. OffsetTasks) never touches the inputs. When every
// part is an identity arena starting where the previous one ended — the
// spans of one homogeneous solve — so is the result, at the first part's
// base and with nothing copied; otherwise the ids are written into a single
// new explicit arena. Cost is additive, and the merged expansion order is
// the inputs' expansion orders in sequence, without expanding anything.
func MergePlanRuns(prs ...*PlanRuns) *PlanRuns {
	tasks, runs := 0, 0
	identity, base := true, 0
	for _, pr := range prs {
		if pr == nil {
			continue
		}
		runs += len(pr.Runs)
		if pr.NumTasks() == 0 {
			continue
		}
		if tasks == 0 {
			base = pr.Base // the first non-empty part's only
		}
		if pr.Arena != nil || pr.Base != base+tasks {
			identity = false
		}
		tasks += pr.NumTasks()
	}
	out := &PlanRuns{Runs: make([]BlockRun, 0, runs)}
	if identity {
		out.Base, out.N = base, tasks
	} else {
		out.Arena = make([]int, 0, tasks)
	}
	off := 0
	for _, pr := range prs {
		if pr == nil {
			continue
		}
		for _, r := range pr.Runs {
			r.Off += off
			out.Runs = append(out.Runs, r)
		}
		off += pr.NumTasks()
		if !identity {
			out.Arena = pr.appendSlots(out.Arena, 0, pr.NumTasks())
		}
	}
	return out
}
