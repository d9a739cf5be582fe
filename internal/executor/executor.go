// Package executor runs decomposition plans against a crowd marketplace and
// closes the control loop the SLADE paper leaves to the platform: bins that
// miss the response deadline are re-issued (at a configurable retry budget),
// and if the delivered reliability of the positive-labelled probe subset
// falls short of the target, an adaptive top-up round decomposes the
// still-uncovered demand and executes it too.
//
// This is the component a production deployment would sit on top of: the
// paper's algorithms produce a *plan*; the executor turns the plan into
// answers with measurable reliability and an itemized spend.
//
// # The BinRunner contract
//
// The executor's only view of a marketplace is the BinRunner interface:
// one synchronous call per bin issue, returning that bin's outcome. The
// contract, stated once here and relied on everywhere:
//
//   - Sequential use: the executor issues bins one at a time from a
//     single goroutine, so a BinRunner need not be safe for concurrent
//     use within one execution. Sharing one runner across concurrent
//     executions is the caller's problem — the serving layer builds one
//     runner per run job (service.PlatformFactory) instead of sharing.
//   - Money is spent on issue: the executor pays the bin's cost the
//     moment RunBin is called, whether or not the outcome is overtime.
//     Implementations must not retry internally; the executor owns the
//     retry budget and its accounting.
//   - Determinism is the implementation's promise, not the executor's:
//     crowdsim.Platform replays identically for a fixed seed (see that
//     package's RNG rules), which is what makes executions reproducible
//     and persisted reports re-servable without re-execution.
//
// # Cancellation points
//
// ExecuteContext observes its context at every point where the next step
// would spend money or time: before every bin issue (including each
// retry attempt) and before each adaptive top-up round. A cancel
// therefore stops the run at the next bin boundary — bins already issued
// stay paid, no partial report is returned (the caller gets ctx.Err()).
// RunBin itself is not interruptible; the guarantee is "never pays for
// another bin after the cancel", not "returns mid-bin".
package executor

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/crowdsim"
	"repro/internal/greedy"
)

// errDegraded is the internal signal that a ContextBinRunner failed
// terminally mid-plan: runPlan returns it after stamping the report, and
// ExecuteContext converts it into a successful return of the partial
// (Degraded) report.
var errDegraded = errors.New("executor: execution degraded")

// BinRunner executes one bin against a crowd and is the executor's only
// view of the marketplace: crowdsim.Platform satisfies it directly
// (anonymous per-bin workers) and crowdsim.PoolRunner routes bins through
// a persistent worker population; a deployment fronting a real
// marketplace plugs its client in here (via service.PlatformFactory).
// A BinRunner need not be safe for concurrent use — the executor issues
// bins sequentially within one execution — and must not retry
// internally; see the package comment for the full contract.
type BinRunner interface {
	// RunBin hands one bin of the given cardinality, pay and difficulty
	// to a worker and returns the outcome. truth carries the ground-truth
	// label per task slot (len(truth) ≤ cardinality) so the outcome can
	// report answer correctness; the call blocks until the (simulated)
	// worker finishes.
	RunBin(cardinality int, pay float64, difficulty int, truth []bool) crowdsim.BinOutcome
}

// BinContext identifies one bin issue within an execution — the
// attempt-epoch coordinates a remote platform derives idempotency keys
// from. Bin is the execution-wide use index (top-up bins continue the
// sequence); Attempt is the executor's retry epoch for that use (0 for
// the first issue). Two issues with equal coordinates are the same
// purchase: a remote runner may reconcile instead of re-paying. Distinct
// Attempt values are distinct purchases — an overtime bin's re-issue
// spends new money by design.
type BinContext struct {
	RunID   string
	Bin     int
	Attempt int
}

// ContextBinRunner is the remote-platform extension of BinRunner: a
// runner that can fail. RunBinContext reports wire-level failure as an
// error instead of inventing an outcome, observes ctx for cancellation,
// and receives the BinContext coordinates for idempotent issue. The
// executor type-asserts for this interface and prefers it when present;
// money accounting shifts accordingly — a bin is counted and paid only
// when the issue commits (err == nil), because a failed remote issue
// charges nothing. A non-cancellation error degrades the execution: the
// executor stops issuing and returns the partial report with
// Report.Degraded set rather than discarding delivered work.
type ContextBinRunner interface {
	BinRunner
	RunBinContext(ctx context.Context, bc BinContext, cardinality int, pay float64, difficulty int, truth []bool) (crowdsim.BinOutcome, error)
}

// Observer receives execution progress callbacks, the seam the serving
// layer's metrics hang off. Callbacks run inline on the executing
// goroutine and must be cheap; a nil Options.Observer disables them.
type Observer interface {
	// BinIssued fires once per bin handed to a worker — retries and
	// top-up bins included — with the bin's wall-clock duration.
	BinIssued(d time.Duration)
	// BinRetried fires before each re-issue of an overtime bin.
	BinRetried()
	// TopUpRound fires at the start of each adaptive top-up round.
	TopUpRound()
}

// ProgressObserver is an optional extension of Observer: an observer that
// also implements it receives a cumulative progress callback after every
// bin issue, carrying the execution's running totals. The serving layer's
// SSE event hub hangs off this seam; plain metrics observers keep
// implementing only Observer.
type ProgressObserver interface {
	Observer
	// Progress fires after each bin issue (retries and top-up bins
	// included) with the total spend so far, the total transformed
	// reliability mass delivered by in-time bins so far (summed over
	// tasks), and the number of bins issued so far. Like the other
	// callbacks it runs inline on the executing goroutine and must be
	// cheap.
	Progress(spent, deliveredMass float64, binsIssued int)
}

// Options configures an execution.
type Options struct {
	// MaxRetries re-issues an overtime bin up to this many times before
	// giving up on it. Zero selects the default (2); a negative value
	// disables retries entirely.
	MaxRetries int
	// Difficulty is the task difficulty level presented to workers
	// (default crowdsim.DefaultDifficulty).
	Difficulty int
	// TopUp enables adaptive top-up rounds: after the main execution, the
	// transformed reliability actually *delivered* per task (counting
	// only bins that completed in time) is compared against the demand,
	// and the uncovered remainder is re-decomposed with Greedy and
	// executed, up to MaxTopUps rounds.
	TopUp bool
	// MaxTopUps bounds the number of top-up rounds. Zero selects the
	// default (2); a negative value disables top-ups even with TopUp set.
	MaxTopUps int
	// Observer, when non-nil, receives per-bin and per-round progress
	// callbacks. It does not alter the execution in any way.
	Observer Observer
	// RunID names this execution for ContextBinRunner implementations
	// (the job id, in the serving layer) — the first coordinate of every
	// idempotency key. Plain BinRunners never see it.
	RunID string
}

// withDefaults fills unset fields. Zero means "default" for the budget
// fields, so "explicitly none" is spelled with a negative value — before
// this rule, Options{MaxRetries: 0} silently re-issued bins twice and a
// zero-retry execution was impossible to request.
func (o Options) withDefaults() Options {
	switch {
	case o.MaxRetries == 0:
		o.MaxRetries = 2
	case o.MaxRetries < 0:
		o.MaxRetries = 0
	}
	if o.Difficulty == 0 {
		o.Difficulty = crowdsim.DefaultDifficulty
	}
	switch {
	case o.MaxTopUps == 0:
		o.MaxTopUps = 2
	case o.MaxTopUps < 0:
		o.MaxTopUps = 0
	}
	return o
}

// Report is the outcome of an execution.
type Report struct {
	// Spent is the total incentive cost paid, including retries and
	// top-up rounds.
	Spent float64
	// PlannedCost is the cost of the input plan alone.
	PlannedCost float64
	// BinsIssued counts every bin handed to a worker (including retries).
	BinsIssued int
	// OvertimeBins counts issues that missed the deadline.
	OvertimeBins int
	// AbandonedBins counts bins that stayed overtime after MaxRetries.
	AbandonedBins int
	// TopUpRounds counts adaptive rounds executed.
	TopUpRounds int
	// Detected marks, per task, whether any in-time worker answered "yes"
	// for it (meaningful for ground-truth-positive tasks).
	Detected []bool
	// EmpiricalReliability is the detected fraction of ground-truth
	// positives.
	EmpiricalReliability float64
	// DeliveredMass is the per-task transformed reliability delivered by
	// in-time bins.
	DeliveredMass []float64
	// MakeSpan is the longest single-bin duration observed.
	MakeSpan time.Duration
	// Degraded marks a partial report: a ContextBinRunner failed
	// terminally (breaker open, retry budget exhausted, permanent
	// rejection) and the execution stopped issuing. Everything delivered
	// up to that point is accounted; top-up rounds are skipped.
	Degraded bool
	// LastError is the failure that degraded the execution (empty when
	// Degraded is false).
	LastError string

	// deliveredTotal is the running sum of DeliveredMass, maintained
	// incrementally so ProgressObserver callbacks don't rescan the
	// per-task vector on every bin issue.
	deliveredTotal float64
	// binSeq numbers bin uses across the whole execution (top-ups
	// continue the sequence) — the Bin coordinate of BinContext.
	binSeq int
}

// DeliveredMassTotal returns the total transformed reliability mass
// delivered by in-time bins, summed over tasks (the running value
// ProgressObserver callbacks report).
func (r *Report) DeliveredMassTotal() float64 { return r.deliveredTotal }

// Execute runs the plan for the instance on the platform. truth carries the
// ground-truth label per task (used to measure empirical reliability, as
// the paper's testing bins do).
func Execute(pl *crowdsim.Platform, in *core.Instance, plan *core.Plan, truth []bool, opts Options) (*Report, error) {
	return ExecuteContext(context.Background(), pl, in, plan, truth, opts)
}

// ExecuteContext is Execute against any BinRunner, with cooperative
// cancellation: the context is observed before every bin issue (including
// each retry attempt and each top-up round), so canceling mid-flight stops
// the execution at the next bin boundary instead of running the plan to
// completion. A canceled execution returns ctx.Err(); money already spent
// on issued bins is spent — the partial report is discarded.
func ExecuteContext(ctx context.Context, r BinRunner, in *core.Instance, plan *core.Plan, truth []bool, opts Options) (*Report, error) {
	o := opts.withDefaults()
	if len(truth) != in.N() {
		return nil, fmt.Errorf("executor: truth has %d entries for %d tasks", len(truth), in.N())
	}
	rep := &Report{
		Detected:      make([]bool, in.N()),
		DeliveredMass: make([]float64, in.N()),
	}
	var err error
	rep.PlannedCost, err = plan.Cost(in.Bins())
	if err != nil {
		return nil, err
	}

	if err := runPlan(ctx, r, in, plan, truth, o, rep); err != nil && !errors.Is(err, errDegraded) {
		return nil, err
	}

	// A degraded execution skips top-ups: the platform already refused
	// more work, and each round would only re-discover that at the cost
	// of another breaker probe.
	for round := 0; o.TopUp && !rep.Degraded && round < o.MaxTopUps; round++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Greedy plan over the gap between each task's demand and the
		// mass actually delivered; nil once every task is covered.
		fix, err := greedy.SolveResidual(in, rep.DeliveredMass)
		if err != nil {
			return nil, err
		}
		if fix == nil {
			break
		}
		rep.TopUpRounds++
		if o.Observer != nil {
			o.Observer.TopUpRound()
		}
		if err := runPlan(ctx, r, in, fix, truth, o, rep); err != nil && !errors.Is(err, errDegraded) {
			return nil, err
		}
	}

	positives, detected := 0, 0
	for i, tv := range truth {
		if tv {
			positives++
			if rep.Detected[i] {
				detected++
			}
		}
	}
	if positives > 0 {
		rep.EmpiricalReliability = float64(detected) / float64(positives)
	} else {
		rep.EmpiricalReliability = 1
	}
	return rep, nil
}

// runPlan issues each bin use (with retries on overtime) and accumulates
// detections, delivered mass and spend into the report. The context is
// checked before every issue so a cancel never pays for another bin.
// Uses are streamed straight off the plan — never expanded into per-use
// slices — and the per-bin truth vector is one reusable buffer sized to
// the menu's largest bin, which bounds every use of a menu cardinality
// (BinRunner's contract is synchronous: implementations must not retain
// the slice past RunBin).
func runPlan(ctx context.Context, r BinRunner, in *core.Instance, plan *core.Plan, truth []bool, o Options, rep *Report) error {
	scratch := make([]bool, in.Bins().MaxCardinality())
	prog, _ := o.Observer.(ProgressObserver)
	cr, remote := r.(ContextBinRunner)
	return plan.EachUse(func(cardinality int, tasks []int) error {
		bin, ok := in.Bins().ByCardinality(cardinality)
		if !ok {
			return fmt.Errorf("executor: unknown bin cardinality %d", cardinality)
		}
		binTruth := scratch[:len(tasks)]
		for i, t := range tasks {
			if t < 0 || t >= in.N() {
				return fmt.Errorf("executor: task %d out of range", t)
			}
			binTruth[i] = truth[t]
		}
		binIdx := rep.binSeq
		rep.binSeq++
		completed := false
		for attempt := 0; attempt <= o.MaxRetries; attempt++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if attempt > 0 && o.Observer != nil {
				o.Observer.BinRetried()
			}
			var out crowdsim.BinOutcome
			if remote {
				// Remote issue: the bin is counted and paid only when the
				// platform commits it — a failed issue charged nothing
				// (idempotent reconciliation is the runner's job), and a
				// terminal failure degrades the execution in place of
				// discarding what was already delivered.
				var err error
				out, err = cr.RunBinContext(ctx, BinContext{RunID: o.RunID, Bin: binIdx, Attempt: attempt},
					bin.Cardinality, bin.Cost, o.Difficulty, binTruth)
				if err != nil {
					if ctx.Err() != nil {
						return ctx.Err()
					}
					rep.Degraded = true
					rep.LastError = err.Error()
					return errDegraded
				}
			} else {
				out = r.RunBin(bin.Cardinality, bin.Cost, o.Difficulty, binTruth)
			}
			rep.BinsIssued++
			rep.Spent += bin.Cost
			if o.Observer != nil {
				o.Observer.BinIssued(out.Duration)
			}
			if out.Duration > rep.MakeSpan {
				rep.MakeSpan = out.Duration
			}
			if out.Overtime {
				rep.OvertimeBins++
				if prog != nil {
					prog.Progress(rep.Spent, rep.deliveredTotal, rep.BinsIssued)
				}
				continue
			}
			completed = true
			w := bin.Weight()
			for i, t := range tasks {
				rep.DeliveredMass[t] += w
				if out.Answers[i] {
					rep.Detected[t] = true
				}
			}
			rep.deliveredTotal += w * float64(len(tasks))
			if prog != nil {
				prog.Progress(rep.Spent, rep.deliveredTotal, rep.BinsIssued)
			}
			break
		}
		if !completed {
			rep.AbandonedBins++
		}
		return nil
	})
}
