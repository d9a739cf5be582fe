package service

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/core"
	"repro/internal/crowdsim"
	"repro/internal/executor"
)

// PlatformSpec selects and parameterizes the simulated crowd platform a
// run job executes against. The zero value is a valid spec: the Jelly
// model, seed 0, anonymous per-bin workers.
//
// The float knobs follow the executor's budget convention: zero keeps the
// default, a negative value means explicitly zero (a spammer-free pool is
// SpammerFraction -1, not 0 — 0 would be indistinguishable from "unset").
type PlatformSpec struct {
	// Kind selects the execution substrate: "sim" (default — in-process
	// crowdsim) or "remote" (the daemon's one marketplace client, built
	// from the -platform-url flag).
	Kind string `json:"kind,omitempty"`
	// Model names the crowd-behaviour model: "jelly" (default) or "smic".
	Model string `json:"model,omitempty"`
	// Seed seeds the platform (and, when Truth is generated, the truth
	// draw). A fixed seed makes the whole execution reproducible: the
	// same request replays to an identical ExecutionReport.
	Seed int64 `json:"seed,omitempty"`
	// PoolSize, when positive, routes bins through a persistent worker
	// population of this size (skill spread, spammers) instead of
	// anonymous per-bin workers. At most MaxPoolSize.
	PoolSize int `json:"pool_size,omitempty"`
	// SpammerFraction overrides the pool's random-answer worker share;
	// zero keeps crowdsim.DefaultPoolConfig's, negative means no
	// spammers. Pool mode only.
	SpammerFraction float64 `json:"spammer_fraction,omitempty"`
	// SkillSigma overrides the pool's per-worker skill spread; zero keeps
	// the default, negative means no spread. Pool mode only.
	SkillSigma float64 `json:"skill_sigma,omitempty"`
}

// MaxPoolSize caps a run job's worker population: the pool is allocated
// at submit time, so an unbounded wire-supplied size would let one small
// request exhaust the daemon's memory.
const MaxPoolSize = 1_000_000

// PlatformFactory builds the BinRunner a run job executes against.
// Config.PlatformFactory overrides the default (crowdsim-backed) factory —
// tests inject blocking or counting runners through it, and a deployment
// fronting a real marketplace would plug its client in here. Factories
// must be safe for concurrent use; each run job gets its own runner.
type PlatformFactory func(spec PlatformSpec) (executor.BinRunner, error)

// defaultPlatformFactory maps a spec onto the crowdsim substrate.
func defaultPlatformFactory(spec PlatformSpec) (executor.BinRunner, error) {
	params, ok := crowdsim.ModelByName(spec.Model)
	if !ok {
		return nil, fmt.Errorf("service: unknown platform model %q (have jelly, smic)", spec.Model)
	}
	pl := crowdsim.New(params, spec.Seed)
	if spec.PoolSize <= 0 {
		return executor.RunnerFunc(pl.RunBin), nil
	}
	cfg := crowdsim.DefaultPoolConfig
	cfg.Size = spec.PoolSize
	cfg.SpammerFraction = overrideRate(cfg.SpammerFraction, spec.SpammerFraction)
	cfg.SkillSigma = overrideRate(cfg.SkillSigma, spec.SkillSigma)
	// The pool draws from its own seed-derived stream: seeding it with the
	// platform seed verbatim would make worker skill offsets and bin noise
	// perfectly correlated (both sources replay the same sequence).
	pool, err := crowdsim.NewPool(pl, cfg, deriveSeed(spec.Seed, 0x706f6f6c)) // "pool"
	if err != nil {
		return nil, err
	}
	return executor.RunnerFunc(pool.RunBin), nil
}

// overrideRate applies the zero-keeps-default / negative-means-zero
// convention of PlatformSpec's float knobs.
func overrideRate(def, v float64) float64 {
	switch {
	case v > 0:
		return v
	case v < 0:
		return 0
	default:
		return def
	}
}

// deriveSeed decorrelates an RNG stream from the request seed: two
// streams derived with different tags never replay each other's sequence,
// while both stay pure functions of the request.
func deriveSeed(seed, tag int64) int64 {
	return seed*0x9E3779B9 + tag
}

// DefaultPositiveRate is the ground-truth positive fraction used when a
// run job supplies neither Truth nor PositiveRate.
const DefaultPositiveRate = 0.3

// RunJob is the run-job payload: plan the instance (through the same
// cached solve path as a solve job), then execute the plan against a
// simulated platform and report the delivered reliability and spend.
type RunJob struct {
	// Instance is the problem to plan and execute.
	Instance *core.Instance
	// Platform selects and seeds the simulated marketplace.
	Platform PlatformSpec
	// Options carries the executor budgets (retries, difficulty,
	// top-ups). Zero-valued fields select the executor defaults;
	// negative MaxRetries/MaxTopUps mean explicitly none.
	Options executor.Options
	// Truth optionally fixes the ground-truth label per task (length must
	// equal the instance size). Nil draws labels from PositiveRate with
	// the platform seed, keeping the run reproducible.
	Truth []bool
	// PositiveRate is the ground-truth positive fraction used when Truth
	// is nil; zero selects DefaultPositiveRate, negative means no
	// positives (reliability trivially 1). At most 1.
	PositiveRate float64
}

// ExecutionReport is the externally visible outcome of a run job: what
// the plan promised, what the platform delivered, and what it cost. It is
// persisted verbatim (JSON) in the job's durable record.
type ExecutionReport struct {
	// Platform and Seed echo the model the run executed against.
	Platform string `json:"platform"`
	Seed     int64  `json:"seed"`
	// PlannedCost is the cost of the decomposition plan alone; Spent is
	// the total paid including retries and top-up rounds.
	PlannedCost float64 `json:"planned_cost"`
	Spent       float64 `json:"spent"`
	// DeliveredMass is the total transformed reliability mass delivered by
	// in-time bins, summed over tasks — the quantity live progress events
	// report, echoed here so the terminal event and the report agree.
	DeliveredMass float64 `json:"delivered_mass"`
	// BinsIssued counts every bin handed to a worker (with retries);
	// OvertimeBins missed the deadline, AbandonedBins stayed overtime
	// after the retry budget, TopUpRounds counts adaptive rounds.
	BinsIssued    int `json:"bins_issued"`
	OvertimeBins  int `json:"overtime_bins"`
	AbandonedBins int `json:"abandoned_bins"`
	TopUpRounds   int `json:"top_up_rounds"`
	// Tasks/Positives/Detected summarize ground truth: how many tasks the
	// instance had, how many were ground-truth positive, and how many of
	// those at least one in-time bin detected.
	Tasks     int `json:"tasks"`
	Positives int `json:"positives"`
	Detected  int `json:"detected"`
	// TargetReliability is the instance's strictest per-task threshold;
	// EmpiricalReliability is the detected fraction of positives — the
	// achieved no-false-negative rate the threshold promised.
	TargetReliability    float64 `json:"target_reliability"`
	EmpiricalReliability float64 `json:"empirical_reliability"`
	// CoveredTasks counts tasks whose delivered transformed mass met
	// their demand; MinDeliveredReliability is the weakest per-task
	// delivered reliability; UncoveredTasks lists the ids that fell short
	// (capped at MaxUncoveredListed — UncoveredCount is the true total).
	CoveredTasks            int     `json:"covered_tasks"`
	UncoveredCount          int     `json:"uncovered_count"`
	UncoveredTasks          []int   `json:"uncovered_tasks,omitempty"`
	MinDeliveredReliability float64 `json:"min_delivered_reliability"`
	// MakeSpanMS is the longest simulated single-bin duration.
	MakeSpanMS float64 `json:"makespan_ms"`
	// Degraded marks a partial report: the remote platform failed
	// terminally mid-run (breaker open, retry budget exhausted) and the
	// execution stopped issuing. Everything delivered before the failure
	// is accounted above; LastError carries the failure.
	Degraded  bool   `json:"degraded,omitempty"`
	LastError string `json:"last_error,omitempty"`
}

// MaxUncoveredListed caps the uncovered-task id list embedded in a report
// so a badly under-delivered million-task run cannot bloat its record.
const MaxUncoveredListed = 100

// validate checks the run payload at submit time (cheap, synchronous
// rejections; platform construction errors surface separately).
func (rj *RunJob) validate() error {
	if rj.Instance == nil {
		return fmt.Errorf("service: run job needs an instance")
	}
	if rj.Truth != nil && len(rj.Truth) != rj.Instance.N() {
		return fmt.Errorf("service: run job truth has %d entries for %d tasks", len(rj.Truth), rj.Instance.N())
	}
	if rj.PositiveRate > 1 {
		return fmt.Errorf("service: run job positive rate %v above 1", rj.PositiveRate)
	}
	if rj.Platform.PoolSize > MaxPoolSize {
		return fmt.Errorf("service: run job pool size %d above the %d cap", rj.Platform.PoolSize, MaxPoolSize)
	}
	// The budget knobs spell "explicitly none" as -1; any other negative
	// is a mistake, rejected here instead of silently clamped downstream.
	if rj.Options.MaxRetries < -1 {
		return fmt.Errorf("service: run job max_retries %d invalid (0 default, -1 none)", rj.Options.MaxRetries)
	}
	if rj.Options.MaxTopUps < -1 {
		return fmt.Errorf("service: run job max_top_ups %d invalid (0 default, -1 none)", rj.Options.MaxTopUps)
	}
	switch rj.Platform.Kind {
	case "", "sim", "remote":
	default:
		return fmt.Errorf("service: unknown platform kind %q (have sim, remote)", rj.Platform.Kind)
	}
	return nil
}

// truth returns the job's ground-truth labels, drawing them from the
// positive rate with a seed derived from the platform seed when none were
// supplied. The derivation decorrelates the truth stream from the
// platform's own draws while keeping it a pure function of the request.
func (rj *RunJob) truth() []bool {
	if rj.Truth != nil {
		return rj.Truth
	}
	rate := overrideRate(DefaultPositiveRate, rj.PositiveRate)
	rng := rand.New(rand.NewSource(deriveSeed(rj.Platform.Seed, 0x74727574))) // "trut"
	t := make([]bool, rj.Instance.N())
	for i := range t {
		t[i] = rng.Float64() < rate
	}
	return t
}

// platformName labels the report with the substrate the run executed on:
// the crowd model for simulated runs, "remote" for marketplace runs.
func (rj *RunJob) platformName() string {
	if rj.Platform.Kind == "remote" {
		return "remote"
	}
	m := strings.ToLower(rj.Platform.Model)
	if m == "" {
		m = "jelly"
	}
	return m
}

// newExecutionReport condenses the executor's raw per-task report into
// the wire form: aggregate spend and retry counters pass through, the
// per-task delivered-mass vector collapses into coverage counts, the
// weakest delivered reliability, and a capped uncovered-id list.
func newExecutionReport(rj *RunJob, rep *executor.Report, truth []bool) *ExecutionReport {
	in := rj.Instance
	out := &ExecutionReport{
		Platform:                rj.platformName(),
		Seed:                    rj.Platform.Seed,
		PlannedCost:             rep.PlannedCost,
		Spent:                   rep.Spent,
		DeliveredMass:           rep.DeliveredMassTotal(),
		BinsIssued:              rep.BinsIssued,
		OvertimeBins:            rep.OvertimeBins,
		AbandonedBins:           rep.AbandonedBins,
		TopUpRounds:             rep.TopUpRounds,
		Tasks:                   in.N(),
		TargetReliability:       in.MaxThreshold(),
		EmpiricalReliability:    rep.EmpiricalReliability,
		MinDeliveredReliability: 1,
		MakeSpanMS:              float64(rep.MakeSpan.Microseconds()) / 1e3,
		Degraded:                rep.Degraded,
		LastError:               rep.LastError,
	}
	for i, tv := range truth {
		if tv {
			out.Positives++
			if rep.Detected[i] {
				out.Detected++
			}
		}
	}
	for i, mass := range rep.DeliveredMass {
		if r := core.ThresholdFromTheta(mass); r < out.MinDeliveredReliability {
			out.MinDeliveredReliability = r
		}
		if mass >= in.Theta(i)-core.RelTol {
			out.CoveredTasks++
			continue
		}
		out.UncoveredCount++
		if len(out.UncoveredTasks) < MaxUncoveredListed {
			out.UncoveredTasks = append(out.UncoveredTasks, i)
		}
	}
	if in.N() == 0 {
		out.MinDeliveredReliability = 0
	}
	return out
}

// runRun drives a run job: plan with the job's solver (exactly like a
// solve job), then execute the plan on the job's runner. Both phases
// observe ctx, so DELETE aborts a run mid-flight — while the plan waits
// for a solve slot or its batch, between bin issues while executing.
func (m *JobManager) runRun(ctx context.Context, j *job) (*core.Plan, *ExecutionReport, error) {
	rj := j.req.Run
	plan, err := m.svc.DecomposeWith(ctx, j.solver, rj.Instance)
	if err != nil {
		return nil, nil, err
	}
	truth := rj.truth()
	opts := rj.Options
	// The job id is the run id a remote platform derives idempotency
	// keys from: stable across wire retries, unique across jobs.
	opts.RunID = j.id
	// One observer feeds both sinks: the manager's executor instruments
	// and the job's SSE event feed.
	opts.Observer = &jobEventObserver{jobs: m, feed: j.feed}
	rep, err := executor.ExecuteContext(ctx, j.runner, rj.Instance, plan, truth, opts)
	if err != nil {
		return nil, nil, err
	}
	if rep.Degraded && m.svc.platform != nil {
		m.svc.platform.NoteDegradedRun()
	}
	return plan, newExecutionReport(rj, rep, truth), nil
}
