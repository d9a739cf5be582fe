package baseline

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/lp"
)

// maxFullCIPColumns bounds the column family of the verbatim reduction.
// Σ_l C(n,l) grows exponentially; beyond this the caller should use Solve.
const maxFullCIPColumns = 200_000

// cipColumn is one combination instance of the Section-4.3 reduction: a
// specific bin cardinality together with a specific subset of atomic tasks.
type cipColumn struct {
	card  int
	tasks []int
	cost  float64
	w     float64
}

// SolveFullCIP runs the literal reduction of Section 4.3: it enumerates
// every (bin, task-subset) combination instance as a CIP column, solves the
// LP relaxation with simplex, randomized-rounds the result and repairs any
// residual demand. It errors out if the column family would exceed
// maxFullCIPColumns — the reduction is exponential by construction, which
// is precisely why the paper labels the Baseline impractical at scale.
func SolveFullCIP(in *core.Instance, seed int64) (*core.Plan, error) {
	n := in.N()
	if n == 0 {
		return &core.Plan{}, nil
	}
	if in.Bins().Len() == 0 {
		return nil, fmt.Errorf("baseline: empty bin menu")
	}

	// Step 1: columns J = Σ_l C(n, l) combination instances. The count is
	// checked before enumeration — C(n, l) explodes quickly.
	var cols []cipColumn
	for _, b := range in.Bins().Bins() {
		if b.Cardinality > n {
			continue
		}
		count := binomial(n, b.Cardinality)
		if count < 0 || int64(len(cols))+count > maxFullCIPColumns {
			return nil, fmt.Errorf("baseline: full CIP needs more than %d columns; use Solve", maxFullCIPColumns)
		}
		for _, sub := range combinations(n, b.Cardinality) {
			cols = append(cols, cipColumn{card: b.Cardinality, tasks: sub, cost: b.Cost, w: b.Weight()})
		}
	}

	// Step 2: rows — one covering constraint per atomic task with demand
	// v_i = -ln(1 - t_i).
	c := make([]float64, len(cols))
	a := make([][]float64, n)
	bvec := make([]float64, n)
	senses := make([]lp.Sense, n)
	for i := 0; i < n; i++ {
		a[i] = make([]float64, len(cols))
		bvec[i] = in.Theta(i)
		senses[i] = lp.GE
	}
	for j, col := range cols {
		c[j] = col.cost
		for _, t := range col.tasks {
			a[t][j] = col.w
		}
	}
	sol, err := lp.Solve(&lp.Problem{C: c, A: a, B: bvec, Senses: senses})
	if err != nil {
		return nil, err
	}
	if sol.Status != lp.Optimal {
		return nil, fmt.Errorf("baseline: full CIP LP status %v", sol.Status)
	}

	// Randomized rounding on the fractional column counts.
	rng := rand.New(rand.NewSource(seed))
	var uses []core.BinUse
	for j, y := range sol.X {
		k := int(math.Floor(y + 1e-12))
		if frac := y - math.Floor(y+1e-12); frac > 1e-12 && rng.Float64() < frac {
			k++
		}
		for u := 0; u < k; u++ {
			uses = append(uses, core.BinUse{Cardinality: cols[j].card, Tasks: cols[j].tasks})
		}
	}
	return repair(in, uses)
}

// LPLowerBound returns the optimal value of the full-CIP linear relaxation,
// a true lower bound on the optimal SLADE cost. Exponential in n; tests use
// it to sandwich the approximation algorithms on tiny instances.
func LPLowerBound(in *core.Instance) (float64, error) {
	n := in.N()
	if n == 0 {
		return 0, nil
	}
	var cols []cipColumn
	for _, b := range in.Bins().Bins() {
		card := b.Cardinality
		if card > n {
			card = n
		}
		count := binomial(n, card)
		if count < 0 || int64(len(cols))+count > maxFullCIPColumns {
			return 0, fmt.Errorf("baseline: LP bound needs too many columns")
		}
		for _, sub := range combinations(n, card) {
			cols = append(cols, cipColumn{card: b.Cardinality, tasks: sub, cost: b.Cost, w: b.Weight()})
		}
	}
	c := make([]float64, len(cols))
	a := make([][]float64, n)
	bvec := make([]float64, n)
	senses := make([]lp.Sense, n)
	for i := 0; i < n; i++ {
		a[i] = make([]float64, len(cols))
		bvec[i] = in.Theta(i)
		senses[i] = lp.GE
	}
	for j, col := range cols {
		c[j] = col.cost
		for _, t := range col.tasks {
			a[t][j] = col.w
		}
	}
	sol, err := lp.Solve(&lp.Problem{C: c, A: a, B: bvec, Senses: senses})
	if err != nil {
		return 0, err
	}
	if sol.Status != lp.Optimal {
		return 0, fmt.Errorf("baseline: LP bound status %v", sol.Status)
	}
	return sol.Objective, nil
}

// binomial returns C(n, k), or -1 on overflow past maxFullCIPColumns.
func binomial(n, k int) int64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	var c int64 = 1
	for i := 0; i < k; i++ {
		c = c * int64(n-i) / int64(i+1)
		if c > maxFullCIPColumns*10 {
			return -1
		}
	}
	return c
}

// combinations enumerates all size-k subsets of {0..n-1} in lexicographic
// order.
func combinations(n, k int) [][]int {
	if k > n || k <= 0 {
		return nil
	}
	var out [][]int
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	for {
		out = append(out, append([]int(nil), idx...))
		i := k - 1
		for i >= 0 && idx[i] == n-k+i {
			i--
		}
		if i < 0 {
			return out
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}
