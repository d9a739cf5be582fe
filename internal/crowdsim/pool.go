package crowdsim

import (
	"fmt"
	"math/rand"
)

// worker is one persistent crowd worker with a stable skill offset. Real
// marketplaces route bins to a finite worker population whose quality
// varies; the Pool models that population.
type worker struct {
	// skillOffset shifts the model confidence for every answer this
	// worker gives (positive = better than the crowd average).
	skillOffset float64
	// spammer marks workers who answer uniformly at random regardless of
	// the task (a fixture of real marketplaces).
	spammer bool
}

// PoolConfig parameterizes a worker population.
type PoolConfig struct {
	// Size is the number of workers (must be positive).
	Size int
	// SkillSigma is the stddev of per-worker skill offsets.
	SkillSigma float64
	// SpammerFraction is the share of workers answering randomly.
	SpammerFraction float64
}

// DefaultPoolConfig mirrors marketplace studies: a large pool, ±3% skill
// spread, and a small spammer population.
var DefaultPoolConfig = PoolConfig{Size: 500, SkillSigma: 0.03, SpammerFraction: 0.05}

// Pool is a persistent worker population attached to a platform.
//
// Concurrency contract: a Pool is NOT safe for concurrent use — RunBin
// draws from the pool's unguarded RNG. Confine a Pool to one goroutine or
// serialize access externally; the executor satisfies this by issuing bins
// sequentially, and the serving layer by building one pool per run job.
// Seed the pool with a value derived (not copied) from the platform seed
// so the two RNG streams stay decorrelated; see the package comment for
// the derivation rule.
type Pool struct {
	platform *Platform
	workers  []worker
	rng      *rand.Rand
}

// NewPool creates a worker population for the platform.
func NewPool(pl *Platform, cfg PoolConfig, seed int64) (*Pool, error) {
	if cfg.Size <= 0 {
		return nil, fmt.Errorf("crowdsim: pool size %d must be positive", cfg.Size)
	}
	if cfg.SpammerFraction < 0 || cfg.SpammerFraction > 1 {
		return nil, fmt.Errorf("crowdsim: spammer fraction %v outside [0,1]", cfg.SpammerFraction)
	}
	rng := rand.New(rand.NewSource(seed))
	p := &Pool{platform: pl, rng: rng, workers: make([]worker, cfg.Size)}
	for i := range p.workers {
		p.workers[i] = worker{
			skillOffset: rng.NormFloat64() * cfg.SkillSigma,
			spammer:     rng.Float64() < cfg.SpammerFraction,
		}
	}
	return p, nil
}

// RunBin hands a bin to a random worker of the pool and returns its
// outcome — the shape of Platform.RunBin. Spammers answer coin flips;
// everyone else answers with the platform confidence shifted by their
// skill offset.
func (p *Pool) RunBin(cardinality int, pay float64, difficulty int, truth []bool) BinOutcome {
	w := p.workers[p.rng.Intn(len(p.workers))]
	conf := 0.5
	if !w.spammer {
		conf = clamp(p.platform.TrueConfidence(cardinality, pay, difficulty)+w.skillOffset, 0.01, 0.999)
	}
	return p.platform.outcome(p.rng, conf, cardinality, pay, truth)
}
