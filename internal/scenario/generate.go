package scenario

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/budget"
	"repro/internal/core"
	"repro/internal/distgen"
)

// request is one planned unit of a cell's workload: an instance to
// decompose and the platform seed its execution replays under.
type request struct {
	in   *core.Instance
	seed int64
}

// workload generates the cell's request sequence from its derived seeds.
// Sizes and thresholds come from one RNG stream ("workload"); platform
// seeds come from per-request tags, so inserting a request re-seeds only
// the requests after it, not the whole cell.
func (c Cell) workload(menu core.BinSet, cellSeed int64) ([]request, error) {
	rng := rand.New(rand.NewSource(DeriveSeed(cellSeed, "workload")))
	sizes := c.sizes(rng)

	// The capped regime prices its threshold per request size: the
	// highest uniform reliability whose planned cost fits the per-task
	// budget. Identical sizes share the bisection via the memo.
	capped := make(map[int]float64)
	threshold := func(n int) (float64, error) {
		if c.Budget != BudgetCapped {
			return c.Threshold, nil
		}
		if t, ok := capped[n]; ok {
			return t, nil
		}
		res, err := budget.MaxReliability(menu, n, c.BudgetPerTask*float64(n), budget.Options{
			MaxThreshold: c.Threshold,
			Tolerance:    1e-3,
		})
		if err != nil {
			return 0, fmt.Errorf("scenario: cell %q: pricing n=%d: %w", c.Name(), n, err)
		}
		capped[n] = res.Threshold
		return res.Threshold, nil
	}

	reqs := make([]request, len(sizes))
	for i, n := range sizes {
		t, err := threshold(n)
		if err != nil {
			return nil, err
		}
		var in *core.Instance
		if c.Arrival == ArrivalSkewed && c.Budget == BudgetUnbounded {
			// Heterogeneous per-task demands from the distgen Pareto
			// tail: most tasks near the requested threshold, a heavy
			// tail tolerating much less.
			ts, err := distgen.HeavyTailed(n, 1.5, 0.05,
				distgen.Bounds{Lo: 0.5, Hi: c.Threshold},
				DeriveSeed(cellSeed, fmt.Sprintf("thr/%d", i)))
			if err != nil {
				return nil, fmt.Errorf("scenario: cell %q: %w", c.Name(), err)
			}
			in, err = core.NewHeterogeneous(menu, ts)
			if err != nil {
				return nil, fmt.Errorf("scenario: cell %q: %w", c.Name(), err)
			}
		} else {
			var err error
			in, err = core.NewHomogeneous(menu, n, t)
			if err != nil {
				return nil, fmt.Errorf("scenario: cell %q: %w", c.Name(), err)
			}
		}
		reqs[i] = request{in: in, seed: reqSeed(cellSeed, i)}
	}
	return reqs, nil
}

// Instances generates the cell's decompose workload — each request's
// instance, in arrival order — without the platform-seed plumbing the
// full lab runner adds. External harnesses (the cluster chaos test) use
// it to replay the exact scenario traffic through an alternative serving
// stack: the same cellSeed yields the same instances the lab would solve.
func (c Cell) Instances(cellSeed int64) ([]*core.Instance, error) {
	menu, err := c.Menu.Build()
	if err != nil {
		return nil, fmt.Errorf("scenario: cell %q: %w", c.Name(), err)
	}
	reqs, err := c.workload(menu, cellSeed)
	if err != nil {
		return nil, err
	}
	out := make([]*core.Instance, len(reqs))
	for i := range reqs {
		out[i] = reqs[i].in
	}
	return out, nil
}

// sizes draws the request-size mix of the cell's arrival pattern.
func (c Cell) sizes(rng *rand.Rand) []int {
	out := make([]int, c.Requests)
	for i := range out {
		if c.Arrival == ArrivalSkewed {
			out[i] = skewedSize(rng, c.Tasks)
		} else {
			out[i] = c.Tasks
		}
	}
	return out
}

// skewedSize draws one heavy-tailed request size around the nominal: a
// Pareto(α=1.2) factor capped at 4x, so most requests land below nominal
// and an occasional one dwarfs its siblings.
func skewedSize(rng *rand.Rand, nominal int) int {
	factor := math.Pow(rng.Float64(), -1/1.2) / 2
	if factor > 4 {
		factor = 4
	}
	n := int(float64(nominal) * factor)
	if n < 1 {
		n = 1
	}
	return n
}

// GenMenu draws a random valid bin menu in the binset shape — consecutive
// cardinalities 1..L, per-task price floor+slope/l, confidence decaying
// with cardinality — for property tests that want scenario-realistic
// menus rather than hand-picked ones. Deterministic in the RNG state.
func GenMenu(rng *rand.Rand) core.BinSet {
	maxCard := 3 + rng.Intn(10) // 3..12
	floor := 0.02 + rng.Float64()*0.04
	slope := 0.04 + rng.Float64()*0.08
	conf0 := 0.82 + rng.Float64()*0.13
	decay := 0.004 + rng.Float64()*0.012
	bins := make([]core.TaskBin, maxCard)
	for l := 1; l <= maxCard; l++ {
		conf := conf0 - decay*float64(l-1)
		if conf < 0.55 {
			conf = 0.55
		}
		bins[l-1] = core.TaskBin{
			Cardinality: l,
			Confidence:  conf,
			Cost:        float64(l) * (floor + slope/float64(l)),
		}
	}
	return core.MustBinSet(bins)
}

// GenArrivalSizes draws a request-size mix the way the matrix's arrival
// patterns do: uniform repetition, a heavy-tailed spread, or a bursty
// cluster of identical sizes, chosen by the RNG. Sizes include sub-block
// remainders and zero-adjacent shapes so parity properties are pinned on
// the same workloads the lab runs.
func GenArrivalSizes(rng *rand.Rand, requests, nominal int) []int {
	if requests < 1 {
		requests = 1
	}
	if nominal < 1 {
		nominal = 1
	}
	out := make([]int, requests)
	switch rng.Intn(3) {
	case 0: // uniform
		for i := range out {
			out[i] = nominal
		}
	case 1: // skewed
		for i := range out {
			out[i] = skewedSize(rng, nominal)
		}
	default: // bursty: one shared size, occasionally tiny (sub-block)
		n := nominal
		if rng.Intn(4) == 0 {
			n = 1 + rng.Intn(3)
		}
		for i := range out {
			out[i] = n
		}
	}
	return out
}

// GenThreshold draws a reliability threshold inside the lab's working
// range (0.5..0.97).
func GenThreshold(rng *rand.Rand) float64 {
	return 0.5 + rng.Float64()*0.47
}
