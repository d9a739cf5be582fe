// Package distgen generates the reliability-threshold workloads of the
// SLADE evaluation (Section 7): homogeneous thresholds and heterogeneous
// thresholds drawn from Normal, Uniform and heavy-tailed distributions,
// with deterministic seeding so every experiment is reproducible.
//
// The paper's heterogeneous default is Normal(µ = 0.9, σ = 0.03); it also
// reports (and omits for space) uniform and heavy-tailed runs. Thresholds
// are clamped into a legal open interval below 1, since a threshold of 1
// would demand infinite transformed reliability mass.
package distgen

import (
	"fmt"
	"math"
	"math/rand"
)

// Bounds clamp generated thresholds into [Lo, Hi].
type Bounds struct {
	Lo, Hi float64
}

// DefaultBounds keep thresholds well inside (0, 1): the evaluation's
// Normal(0.9, 0.03) mass lies comfortably within them.
var DefaultBounds = Bounds{Lo: 0.5, Hi: 0.995}

// clampTo applies the bounds.
func (b Bounds) clampTo(v float64) float64 {
	if v < b.Lo {
		return b.Lo
	}
	if v > b.Hi {
		return b.Hi
	}
	return v
}

// validate rejects nonsensical bounds.
func (b Bounds) validate() error {
	if !(b.Lo >= 0 && b.Lo <= b.Hi && b.Hi < 1) {
		return fmt.Errorf("distgen: bounds [%v, %v] outside 0 ≤ lo ≤ hi < 1", b.Lo, b.Hi)
	}
	return nil
}

// Homogeneous returns n copies of the threshold t.
func Homogeneous(n int, t float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = t
	}
	return out
}

// Normal draws n thresholds from Normal(mu, sigma) clamped to the bounds —
// the paper's default heterogeneous workload with µ = 0.9, σ = 0.03.
func Normal(n int, mu, sigma float64, b Bounds, seed int64) ([]float64, error) {
	if err := b.validate(); err != nil {
		return nil, err
	}
	if sigma < 0 {
		return nil, fmt.Errorf("distgen: negative sigma %v", sigma)
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		out[i] = b.clampTo(mu + sigma*rng.NormFloat64())
	}
	return out, nil
}

// Uniform draws n thresholds uniformly from [lo, hi] ∩ bounds.
func Uniform(n int, lo, hi float64, b Bounds, seed int64) ([]float64, error) {
	if err := b.validate(); err != nil {
		return nil, err
	}
	if lo > hi {
		return nil, fmt.Errorf("distgen: uniform range [%v, %v] inverted", lo, hi)
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		out[i] = b.clampTo(lo + (hi-lo)*rng.Float64())
	}
	return out, nil
}

// HeavyTailed draws n thresholds whose distance below the upper bound
// follows a Pareto(α) tail: most tasks demand reliability near hi, a heavy
// tail tolerates much less. alpha > 0 controls tail weight (smaller =
// heavier); scale sets the typical distance below hi.
func HeavyTailed(n int, alpha, scale float64, b Bounds, seed int64) ([]float64, error) {
	if err := b.validate(); err != nil {
		return nil, err
	}
	if alpha <= 0 || scale <= 0 {
		return nil, fmt.Errorf("distgen: alpha and scale must be positive (%v, %v)", alpha, scale)
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		// Pareto via inverse CDF: scale · U^{-1/α} ≥ scale.
		gap := scale * math.Pow(rng.Float64(), -1/alpha)
		out[i] = b.clampTo(b.Hi - (gap - scale)) // gap-scale ≥ 0 below Hi
	}
	return out, nil
}
