package crowdsim

import (
	"math"
	"math/rand"
	"sync"
	"time"
)

// Platform simulates one crowdsourcing marketplace for a given task model.
// It is deterministic for a fixed seed: a sequence of RunBin/Probe calls
// replays identically across processes, which is what lets the serving
// layer promise reproducible run jobs. All methods are safe for concurrent
// use — a mutex serializes RNG draws — but determinism holds only for a
// sequential call order (concurrent callers interleave draws); callers
// that need reproducibility give each execution its own seeded Platform.
type Platform struct {
	params Params
	mu     sync.Mutex // guards rng
	rng    *rand.Rand
}

// New creates a Platform with the given model and RNG seed.
func New(p Params, seed int64) *Platform {
	return &Platform{params: p, rng: rand.New(rand.NewSource(seed))}
}

// Params returns the platform's model parameters.
func (pl *Platform) Params() Params { return pl.params }

// TrueConfidence returns the model's ground-truth per-task confidence for a
// bin of the given cardinality, bin pay and difficulty level. This is the
// quantity the calibration package estimates from probe bins.
func (pl *Platform) TrueConfidence(cardinality int, pay float64, difficulty int) float64 {
	p := pl.params
	conf := p.BaseConfidence - p.ConfidenceDecay*float64(cardinality-2)
	if pay > 0 && pay < p.RefPay {
		conf -= p.PayPenalty * math.Log(p.RefPay/pay)
	}
	conf -= p.DifficultyShift * float64(difficulty-DefaultDifficulty)
	return clamp(conf, p.MinConfidence, p.MaxConfidence)
}

// ExpectedDuration returns the expected completion time of a bin of the
// given cardinality at the given pay: K·l/pay minutes.
func (pl *Platform) ExpectedDuration(cardinality int, pay float64) time.Duration {
	if pay <= 0 {
		return time.Duration(math.MaxInt64)
	}
	minutes := pl.params.TimeFactor * float64(cardinality) / pay
	return time.Duration(minutes * float64(time.Minute))
}

// MaxInTimeCardinality returns the largest cardinality whose expected
// completion time meets the deadline at the given bin pay — the solid-line
// boundary of Figure 3.
func (pl *Platform) MaxInTimeCardinality(pay float64) int {
	l := 0
	for cand := 1; cand <= 1000; cand++ {
		if pl.ExpectedDuration(cand, pay) <= pl.params.Deadline {
			l = cand
		} else {
			break
		}
	}
	return l
}

// MinInTimePay returns the smallest pay (on a cent grid) at which a bin of
// the given cardinality is expected to finish within the deadline. This is
// the "minimum cost that meets the response time requirement" rule of
// Section 3.1 used to price each cardinality.
func (pl *Platform) MinInTimePay(cardinality int) float64 {
	// T = K·l/c ≤ D  ⇔  c ≥ K·l/D.
	need := pl.params.TimeFactor * float64(cardinality) / pl.params.Deadline.Minutes()
	cents := math.Ceil(need*100 - 1e-9)
	if cents < 1 {
		cents = 1
	}
	return cents / 100
}

// BinOutcome is the result of one simulated bin execution.
type BinOutcome struct {
	// Answers holds the worker's boolean answer per task slot, parallel to
	// the tasks handed in. Valid only when Overtime is false.
	Answers []bool
	// Correct marks whether each answer matches the ground truth.
	Correct []bool
	// Duration is the simulated completion time.
	Duration time.Duration
	// Overtime reports whether the bin missed the platform deadline, in
	// which case its answers are disqualified.
	Overtime bool
}

// RunBin simulates one worker completing a bin: a worker with sampled skill
// answers each task independently with the model confidence, and the
// completion time is drawn from the lognormal market model.
func (pl *Platform) RunBin(cardinality int, pay float64, difficulty int, truth []bool) BinOutcome {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if len(truth) > cardinality {
		truth = truth[:cardinality]
	}
	conf := pl.TrueConfidence(cardinality, pay, difficulty)
	conf = clamp(conf+pl.rng.NormFloat64()*pl.params.WorkerSigma,
		pl.params.MinConfidence, pl.params.MaxConfidence)

	out := BinOutcome{
		Answers: make([]bool, len(truth)),
		Correct: make([]bool, len(truth)),
	}
	for i, tv := range truth {
		correct := pl.rng.Float64() < conf
		out.Correct[i] = correct
		if correct {
			out.Answers[i] = tv
		} else {
			out.Answers[i] = !tv
		}
	}
	jitter := math.Exp(pl.rng.NormFloat64() * pl.params.TimeJitter)
	out.Duration = time.Duration(float64(pl.ExpectedDuration(cardinality, pay)) * jitter)
	out.Overtime = out.Duration > pl.params.Deadline
	return out
}

// ProbeResult aggregates repeated probe-bin executions at one design point —
// the raw material of the Figure-3 curves and of bin calibration.
type ProbeResult struct {
	// Cardinality, Pay and Difficulty echo the design point.
	Cardinality int
	Pay         float64
	Difficulty  int
	// MeanConfidence is the fraction of correct answers among in-time
	// bins (NaN if every bin timed out).
	MeanConfidence float64
	// OvertimeRate is the fraction of probe bins missing the deadline.
	OvertimeRate float64
	// Assignments is the number of probe bins issued.
	Assignments int
}

// Probe issues `assignments` probe bins of the given design point, each
// filled with random ground-truth tasks, and aggregates correctness among
// in-time bins. This mirrors the paper's probing methodology for learning
// task-bin parameters (Section 3.1).
func (pl *Platform) Probe(cardinality int, pay float64, difficulty, assignments int) ProbeResult {
	res := ProbeResult{
		Cardinality: cardinality,
		Pay:         pay,
		Difficulty:  difficulty,
		Assignments: assignments,
	}
	correct, answered, overtime := 0, 0, 0
	for a := 0; a < assignments; a++ {
		truth := make([]bool, cardinality)
		pl.mu.Lock()
		for i := range truth {
			truth[i] = pl.rng.Float64() < 0.5
		}
		pl.mu.Unlock()
		out := pl.RunBin(cardinality, pay, difficulty, truth)
		if out.Overtime {
			overtime++
			continue
		}
		for _, c := range out.Correct {
			answered++
			if c {
				correct++
			}
		}
	}
	if answered > 0 {
		res.MeanConfidence = float64(correct) / float64(answered)
	} else {
		res.MeanConfidence = math.NaN()
	}
	res.OvertimeRate = float64(overtime) / float64(assignments)
	return res
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
