package crowdsim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"
)

// Worker is one persistent crowd worker with a stable skill offset. Real
// marketplaces route bins to a finite worker population whose quality
// varies; the Pool models that population so qualification policies (probe
// bins with known ground truth, Section 3.1) can be evaluated.
type Worker struct {
	// ID identifies the worker within its pool.
	ID int
	// SkillOffset shifts the model confidence for every answer this
	// worker gives (positive = better than the crowd average).
	SkillOffset float64
	// Spammer marks workers who answer uniformly at random regardless of
	// the task (a fixture of real marketplaces).
	Spammer bool
	// Completed counts bins this worker has finished.
	Completed int
	// CorrectProbe and TotalProbe track qualification-probe performance.
	CorrectProbe, TotalProbe int
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
// Concurrency contract: a Pool is NOT safe for concurrent use — RunBin,
// Qualify and the probe helpers mutate worker records and draw from the
// pool's unguarded RNG. Confine a Pool to one goroutine or serialize
// access externally; the executor satisfies this by issuing bins
// sequentially, and the serving layer by building one pool per run job.
// Seed the pool with a value derived (not copied) from the platform seed
// so the two RNG streams stay decorrelated; see the package comment for
// the derivation rule.
type Pool struct {
	platform *Platform
	workers  []Worker
	rng      *rand.Rand
	// banned marks workers excluded by qualification.
	banned map[int]bool
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
	p := &Pool{platform: pl, rng: rng, banned: make(map[int]bool)}
	p.workers = make([]Worker, cfg.Size)
	for i := range p.workers {
		p.workers[i] = Worker{
			ID:          i,
			SkillOffset: rng.NormFloat64() * cfg.SkillSigma,
			Spammer:     rng.Float64() < cfg.SpammerFraction,
		}
	}
	return p, nil
}

// Size returns the total population size.
func (p *Pool) Size() int { return len(p.workers) }

// ActiveWorkers returns the number of workers not excluded by
// qualification.
func (p *Pool) ActiveWorkers() int { return len(p.workers) - len(p.banned) }

// Worker returns a copy of the worker record.
func (p *Pool) Worker(id int) (Worker, error) {
	if id < 0 || id >= len(p.workers) {
		return Worker{}, fmt.Errorf("crowdsim: worker %d out of range", id)
	}
	return p.workers[id], nil
}

// pick draws a random non-banned worker.
func (p *Pool) pick() *Worker {
	for {
		w := &p.workers[p.rng.Intn(len(p.workers))]
		if !p.banned[w.ID] {
			return w
		}
	}
}

// RunBin hands a bin to a random active worker and returns the outcome plus
// the worker that served it. Spammers answer uniformly at random; everyone
// else answers with the platform confidence shifted by their skill offset.
func (p *Pool) RunBin(cardinality int, pay float64, difficulty int, truth []bool) (BinOutcome, int) {
	w := p.pick()
	w.Completed++
	if len(truth) > cardinality {
		truth = truth[:cardinality]
	}
	out := BinOutcome{
		Answers: make([]bool, len(truth)),
		Correct: make([]bool, len(truth)),
	}
	conf := p.platform.TrueConfidence(cardinality, pay, difficulty) + w.SkillOffset
	conf = clamp(conf, 0.01, 0.999)
	for i, tv := range truth {
		var correct bool
		if w.Spammer {
			correct = p.rng.Float64() < 0.5
		} else {
			correct = p.rng.Float64() < conf
		}
		out.Correct[i] = correct
		if correct {
			out.Answers[i] = tv
		} else {
			out.Answers[i] = !tv
		}
	}
	jitter := math.Exp(p.rng.NormFloat64() * p.platform.params.TimeJitter)
	out.Duration = time.Duration(float64(p.platform.ExpectedDuration(cardinality, pay)) * jitter)
	out.Overtime = out.Duration > p.platform.params.Deadline
	return out, w.ID
}

// Qualify issues qualification probes (bins with known ground truth) across
// the pool and bans workers whose probe accuracy falls below minAccuracy.
// probesPerWorker × cardinality answers are collected per sampled worker.
// It returns the number of workers banned. This is the probe mechanism
// Section 3.1 describes, applied to worker screening.
func (p *Pool) Qualify(cardinality int, pay float64, difficulty, probesPerWorker int, minAccuracy float64) (int, error) {
	if probesPerWorker < 1 {
		return 0, fmt.Errorf("crowdsim: probesPerWorker %d < 1", probesPerWorker)
	}
	if cardinality < 1 {
		return 0, fmt.Errorf("crowdsim: cardinality %d < 1", cardinality)
	}
	for i := range p.workers {
		w := &p.workers[i]
		for probe := 0; probe < probesPerWorker; probe++ {
			truth := make([]bool, cardinality)
			for j := range truth {
				truth[j] = p.rng.Float64() < 0.5
			}
			conf := p.platform.TrueConfidence(cardinality, pay, difficulty) + w.SkillOffset
			conf = clamp(conf, 0.01, 0.999)
			for range truth {
				var correct bool
				if w.Spammer {
					correct = p.rng.Float64() < 0.5
				} else {
					correct = p.rng.Float64() < conf
				}
				w.TotalProbe++
				if correct {
					w.CorrectProbe++
				}
			}
		}
	}
	banned := 0
	for i := range p.workers {
		w := &p.workers[i]
		if w.TotalProbe == 0 {
			continue
		}
		if acc := float64(w.CorrectProbe) / float64(w.TotalProbe); acc < minAccuracy {
			if !p.banned[w.ID] {
				p.banned[w.ID] = true
				banned++
			}
		}
	}
	if p.ActiveWorkers() == 0 {
		return banned, fmt.Errorf("crowdsim: qualification banned the entire pool")
	}
	return banned, nil
}

// EmpiricalConfidence measures the pool's delivered per-answer accuracy at
// a design point over the given number of bins — the pool analogue of
// Platform.Probe.
func (p *Pool) EmpiricalConfidence(cardinality int, pay float64, difficulty, bins int) float64 {
	correct, total := 0, 0
	for b := 0; b < bins; b++ {
		truth := make([]bool, cardinality)
		for j := range truth {
			truth[j] = p.rng.Float64() < 0.5
		}
		out, _ := p.RunBin(cardinality, pay, difficulty, truth)
		if out.Overtime {
			continue
		}
		for _, c := range out.Correct {
			total++
			if c {
				correct++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(correct) / float64(total)
}

// PoolRunner adapts a Pool to the single-outcome RunBin signature shared
// with Platform, the shape executor.RunnerFunc wraps into the executor's
// BinRunner: the worker id is dropped, the outcome kept. Bins are still
// routed through the pool's persistent population, so skill spread,
// spammers and qualification bans all shape the execution. PoolRunner
// inherits the Pool's concurrency contract — not safe for concurrent use
// — which the executor's sequential bin issue satisfies.
type PoolRunner struct{ Pool *Pool }

// RunBin hands the bin to a random active worker and returns its outcome.
func (r PoolRunner) RunBin(cardinality int, pay float64, difficulty int, truth []bool) BinOutcome {
	out, _ := r.Pool.RunBin(cardinality, pay, difficulty, truth)
	return out
}

// TopWorkers returns the ids of the k active workers with the best probe
// accuracy (ties broken by id), for preferential routing.
func (p *Pool) TopWorkers(k int) []int {
	type scored struct {
		id  int
		acc float64
	}
	var s []scored
	for _, w := range p.workers {
		if p.banned[w.ID] || w.TotalProbe == 0 {
			continue
		}
		s = append(s, scored{w.ID, float64(w.CorrectProbe) / float64(w.TotalProbe)})
	}
	sort.Slice(s, func(a, b int) bool {
		if s[a].acc != s[b].acc {
			return s[a].acc > s[b].acc
		}
		return s[a].id < s[b].id
	})
	if k > len(s) {
		k = len(s)
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = s[i].id
	}
	return out
}
