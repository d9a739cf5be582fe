package opq

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
)

// DefaultNodeBudget bounds the number of DFS nodes Algorithm 2 may visit.
// The two cuts keep real menus far below this; the budget guards against
// pathological menus (many bins of near-zero confidence).
const DefaultNodeBudget = 5_000_000

// Build constructs the Optimal Priority Queue for the menu and reliability
// threshold t, following Algorithm 2: a backtracking depth-first enumeration
// of bin multisets in non-decreasing bin order that stops each branch at the
// first feasible combination and skips a branch when the frontier dominates
// it on (LCM, UC) — the node itself (Lemma 1) or the cheapest feasible
// combination it could still grow into (the cost bound in enumerate). Both
// cuts only skip combinations that would have been rejected at insertion, so
// the result is the Definition-4 frontier of the exhaustive enumeration,
// element for element and bit for bit.
func Build(bins core.BinSet, t float64) (*Queue, error) {
	return BuildBudget(bins, t, DefaultNodeBudget)
}

// BuildBudget is Build with an explicit enumeration node budget.
func BuildBudget(bins core.BinSet, t float64, budget int) (*Queue, error) {
	q, _, err := BuildInstrumented(bins, t, budget, true)
	return q, err
}

// maxAssignments bounds how many bin assignments one task may need, and with
// it the recursion depth of the enumeration: a combination meeting demand θ
// from bins of weight ≥ w_min holds up to θ/w_min of them, one stack frame
// each. The paper's range (t ≤ 0.98 on the Jelly and SMIC menus) needs at
// most 11; a menu past this bound is refused before enumerating rather than
// recursed into until the node budget or the goroutine stack gives out.
const maxAssignments = 4096

// BuildStats reports enumeration effort; used by the pruning ablation
// benchmark to quantify what each cut saves.
type BuildStats struct {
	// NodesVisited counts DFS nodes expanded by Algorithm 2.
	NodesVisited int
	// Lemma1Cuts counts the infeasible nodes whose subtree was skipped
	// because a frontier element already dominated the node itself.
	Lemma1Cuts int
	// BoundCuts counts the infeasible, undominated nodes whose subtree was
	// skipped because a frontier element dominated the cheapest feasible
	// completion the node could have.
	BoundCuts int
}

// BuildInstrumented is BuildBudget with enumeration statistics and a switch
// for the two mid-enumeration cuts (Lemma 1 and the cost bound). Disabling
// them yields the same queue (dominated combinations are still rejected at
// insertion) at a much larger enumeration cost: it is the exhaustive
// reference enumeration the parity tests and the ablation compare against.
func BuildInstrumented(bins core.BinSet, t float64, budget int, prune bool) (*Queue, BuildStats, error) {
	if bins.Len() == 0 {
		return nil, BuildStats{}, fmt.Errorf("opq: empty bin menu")
	}
	if !(t >= 0 && t < 1) {
		return nil, BuildStats{}, fmt.Errorf("opq: threshold %v outside [0,1)", t)
	}
	need := core.Theta(t) - core.RelTol
	b := &builder{
		q:      &Queue{Threshold: t, bins: bins},
		terms:  make([]term, bins.Len()),
		counts: make([]int, bins.Len()),
		need:   need,
		budget: budget,
		prune:  prune,
	}
	weakest := 0
	for i := range b.terms {
		bin := bins.At(i)
		b.terms[i] = term{
			card:   int64(bin.Cardinality),
			unit:   bin.Cost / float64(bin.Cardinality),
			weight: bin.Weight(),
		}
		if b.terms[i].weight < b.terms[weakest].weight {
			weakest = i
		}
	}
	if need/b.terms[weakest].weight > maxAssignments {
		return nil, BuildStats{}, fmt.Errorf(
			"opq: threshold %v needs more than %d assignments of the weakest bin (cardinality %d, confidence %v)",
			t, maxAssignments, bins.At(weakest).Cardinality, bins.At(weakest).Confidence)
	}
	// minRatio is a running minimum from the right of unit/weight. BinSet
	// validation guarantees cost > 0 and 0 < confidence < 1, so every
	// ratio is positive or +Inf, never NaN; written as !(r >= ratio), a
	// NaN would still propagate into the bound, where no cut fires on it,
	// instead of being passed over.
	ratio := math.Inf(1)
	for i := len(b.terms) - 1; i >= 0; i-- {
		if r := b.terms[i].unit / b.terms[i].weight; !(r >= ratio) {
			ratio = r
		}
		b.terms[i].minRatio = ratio
	}

	err := b.enumerate(0, 1, 0, 0)
	if err == nil && len(b.q.Elems) == 0 {
		err = fmt.Errorf("opq: no feasible combination found (budget %d)", budget)
	}
	if err != nil {
		return nil, b.stats, err
	}
	return b.q, b.stats, nil
}

// term is what the enumeration needs of one menu bin, computed once.
type term struct {
	card int64
	// unit is c_l / l and weight is w_l: the UC and mass one assignment adds.
	unit, weight float64
	// minRatio is the least unit/weight over this bin and every later one:
	// the cheapest price of a unit of mass still open to a node here.
	minRatio float64
}

// boundSlack shrinks the cost bound before it is compared with the frontier.
// A descendant's UC and mass are float sums of up to maxAssignments terms, so
// they can stray from the real-number sums the bound reasons about by
// ~4096 · 2⁻⁵³ ≈ 5e-13 relative; 1e-9 leaves three orders of magnitude and
// costs nothing measurable in cuts.
const boundSlack = 1 - 1e-9

// builder carries the shared state of the Algorithm-2 enumeration.
type builder struct {
	q     *Queue
	terms []term
	// counts is the multiset S of the node being visited, incremented on
	// the way down and decremented on the way back; insert copies it,
	// into storage an evicted combination left in free when there is some.
	counts []int
	free   [][]int
	// need is the demand θ(t) less core.RelTol: mass ≥ need is feasible.
	need   float64
	budget int
	stats  BuildStats
	// prune enables the two mid-enumeration cuts; when false, domination
	// is only checked at insertion time (the queue contents stay
	// identical, the enumeration just visits more nodes).
	prune bool
}

// enumerate is the SubFunction Enumerate(p, q, S, B, t) of Algorithm 2 as a
// backtracking search. The multiset S built so far is b.counts, with its
// LCM, UC and mass passed by value; p is the smallest menu index allowed
// next, which makes the enumeration visit each multiset exactly once. It
// allocates only when it inserts.
func (b *builder) enumerate(p int, l0 int64, uc0, mass0 float64) error {
	for k := p; k < len(b.terms); k++ {
		b.stats.NodesVisited++
		if b.stats.NodesVisited > b.budget {
			return fmt.Errorf("opq: enumeration exceeded node budget %d", b.budget)
		}
		tm := &b.terms[k]
		l, err := lcm(l0, tm.card)
		if err != nil {
			continue // overflowing combinations cannot beat the frontier
		}
		uc, mass := uc0+tm.unit, mass0+tm.weight
		if mass >= b.need {
			// Lines 8-10: feasible — insert, evicting dominated elements.
			if !b.q.dominated(l, uc) {
				b.counts[k]++
				b.insert(l, uc, mass)
				b.counts[k]--
			}
			continue
		}
		if b.prune {
			// Line 7 (Lemma 1): the node, and thereby every superset
			// of it, is dominated by an existing frontier element.
			if b.q.dominated(l, uc) {
				b.stats.Lemma1Cuts++
				continue
			}
			// Cost bound: every feasible descendant has LCM ≥ l and
			// still has to buy need − mass of mass at no better than
			// minRatio per unit, so its UC is at least the bound. If
			// the frontier dominates (l, bound), the first feasible
			// descendant reached would fail its own domination test
			// (e.UC <= uc, ties included) against that same element,
			// and so would the next: nothing under this node is ever
			// inserted, and the frontier after the subtree is the
			// frontier before it.
			if b.q.dominated(l, (uc+(b.need-mass)*tm.minRatio)*boundSlack) {
				b.stats.BoundCuts++
				continue
			}
		}
		// Line 12: infeasible and not cut — recurse deeper.
		b.counts[k]++
		err = b.enumerate(k, l, uc, mass)
		b.counts[k]--
		if err != nil {
			return err
		}
	}
	return nil
}

// insert adds the feasible combination at b.counts to the frontier, evicting
// any elements it dominates, and keeps the descending-LCM order. The caller
// must have checked the combination is not itself dominated: then no
// resident shares its LCM (one would dominate it or be evicted by it), the
// residents it evicts — LCM ≥ l and UC ≥ uc — are one contiguous range, and
// that range ends exactly where the newcomer belongs.
func (b *builder) insert(l int64, uc, mass float64) {
	elems := b.q.Elems
	hi := 0
	for hi < len(elems) && elems[hi].LCM >= l {
		hi++
	}
	lo := hi
	for lo > 0 && elems[lo-1].UC >= uc {
		lo--
	}
	for i := lo; i < hi; i++ {
		b.free = append(b.free, elems[i].counts)
	}
	var counts []int
	if n := len(b.free); n > 0 {
		counts, b.free = b.free[n-1], b.free[:n-1]
	} else {
		counts = make([]int, len(b.counts))
	}
	copy(counts, b.counts)
	b.q.Elems = slices.Replace(elems, lo, hi, Comb{counts: counts, bins: b.q.bins, LCM: l, UC: uc, Mass: mass})
}
