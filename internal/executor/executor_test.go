package executor

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/binset"
	"repro/internal/core"
	"repro/internal/crowdsim"
	"repro/internal/hetero"
	"repro/internal/opq"
)

// planOf builds a plan from a literal use list; the test's uses are
// well-formed, so a rejection is a test bug.
func planOf(uses ...core.BinUse) *core.Plan {
	p, err := core.PlanFromUses(uses)
	if err != nil {
		panic(err)
	}
	return p
}

// scriptedRunner is a deterministic BinRunner for unit tests: every bin
// completes in one second with all-correct answers (or goes overtime when
// overtime is set), and onCall observes each issue.
type scriptedRunner struct {
	calls    int
	overtime bool
	onCall   func(call int)
}

func (r *scriptedRunner) RunBin(cardinality int, pay float64, difficulty int, truth []bool) crowdsim.BinOutcome {
	r.calls++
	if r.onCall != nil {
		r.onCall(r.calls)
	}
	out := crowdsim.BinOutcome{
		Answers:  make([]bool, len(truth)),
		Correct:  make([]bool, len(truth)),
		Duration: time.Second,
		Overtime: r.overtime,
	}
	copy(out.Answers, truth)
	for i := range out.Correct {
		out.Correct[i] = true
	}
	return out
}

func jellyEnv(t *testing.T, n int, threshold float64, seed int64) (*crowdsim.Platform, *core.Instance, *core.Plan, []bool) {
	t.Helper()
	pl := crowdsim.New(crowdsim.Jelly(), seed)
	menu := binset.MustJelly(20)
	in, err := core.NewHomogeneous(menu, n, threshold)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := (opq.Solver{}).Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	truth := make([]bool, n)
	for i := range truth {
		truth[i] = rng.Float64() < 0.3
	}
	return pl, in, plan, truth
}

func TestExecuteBasic(t *testing.T) {
	pl, in, plan, truth := jellyEnv(t, 2000, 0.95, 7)
	rep, err := Execute(pl, in, plan, truth, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.BinsIssued < plan.NumUses() {
		t.Errorf("issued %d bins for a %d-use plan", rep.BinsIssued, plan.NumUses())
	}
	if rep.Spent < rep.PlannedCost-1e-9 {
		t.Errorf("spent %v below planned %v", rep.Spent, rep.PlannedCost)
	}
	// The menu keeps every bin within the deadline in expectation; with
	// retries the delivered reliability should be close to the target.
	if rep.EmpiricalReliability < 0.93 {
		t.Errorf("empirical reliability %v far below target 0.95", rep.EmpiricalReliability)
	}
}

func TestExecuteRejectsBadInput(t *testing.T) {
	pl, in, plan, _ := jellyEnv(t, 10, 0.9, 1)
	if _, err := Execute(pl, in, plan, []bool{true}, Options{}); err == nil {
		t.Error("mismatched truth length accepted")
	}
	bad := planOf(core.BinUse{Cardinality: 99, Tasks: []int{0}})
	truth := make([]bool, in.N())
	if _, err := Execute(pl, in, bad, truth, Options{}); err == nil {
		t.Error("unknown cardinality accepted")
	}
	oob := planOf(core.BinUse{Cardinality: 1, Tasks: []int{55}})
	if _, err := Execute(pl, in, oob, truth, Options{}); err == nil {
		t.Error("out-of-range task accepted")
	}
}

func TestExecuteRetriesOvertime(t *testing.T) {
	// A menu priced exactly at the deadline boundary: the lognormal time
	// jitter makes a sizable fraction of bins overtime, forcing retries.
	pl := crowdsim.New(crowdsim.Jelly(), 3)
	price := pl.MinInTimePay(20) // expected duration ≈ deadline → ~50% overtime
	menu := core.MustBinSet([]core.TaskBin{{
		Cardinality: 20,
		Confidence:  pl.TrueConfidence(20, price, crowdsim.DefaultDifficulty),
		Cost:        price,
	}})
	in, err := core.NewHomogeneous(menu, 200, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := (opq.Solver{}).Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	truth := make([]bool, 200)
	rep, err := Execute(pl, in, plan, truth, Options{MaxRetries: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OvertimeBins == 0 {
		t.Error("expected overtime bins at the deadline boundary")
	}
	if rep.BinsIssued <= plan.NumUses() {
		t.Error("expected retries to issue extra bins")
	}
	if rep.Spent <= rep.PlannedCost {
		t.Error("retries must cost money")
	}
}

func TestExecuteTopUpImprovesCoverage(t *testing.T) {
	// Remove half the plan so delivered mass is short, then let top-up
	// repair it.
	pl, in, plan, truth := jellyEnv(t, 1000, 0.95, 11)
	half := planOf(plan.Materialized()[:plan.NumUses()/2]...)
	rep, err := Execute(pl, in, half, truth, Options{TopUp: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TopUpRounds == 0 {
		t.Fatal("expected at least one top-up round")
	}
	// After top-up every task's delivered mass must meet its demand
	// (modulo bins abandoned after retries, which this menu avoids).
	if rep.AbandonedBins == 0 {
		for i, m := range rep.DeliveredMass {
			if m < in.Theta(i)-core.RelTol {
				t.Fatalf("task %d under-covered after top-up: %v < %v", i, m, in.Theta(i))
			}
		}
	}
}

func TestExecuteNoTopUpLeavesGap(t *testing.T) {
	pl, in, plan, truth := jellyEnv(t, 1000, 0.95, 11)
	half := planOf(plan.Materialized()[:plan.NumUses()/2]...)
	rep, err := Execute(pl, in, half, truth, Options{TopUp: false})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TopUpRounds != 0 {
		t.Error("top-up ran despite being disabled")
	}
	short := 0
	for i, m := range rep.DeliveredMass {
		if m < in.Theta(i)-core.RelTol {
			short++
		}
	}
	if short == 0 {
		t.Error("expected under-covered tasks without top-up")
	}
}

func TestExecuteHeterogeneousPlan(t *testing.T) {
	pl := crowdsim.New(crowdsim.SMIC(), 5)
	menu := binset.MustSMIC(15)
	th := make([]float64, 500)
	rng := rand.New(rand.NewSource(5))
	for i := range th {
		th[i] = 0.8 + 0.15*rng.Float64()
	}
	in, err := core.NewHeterogeneous(menu, th)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := hetero.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	truth := make([]bool, 500)
	for i := range truth {
		truth[i] = i%3 == 0
	}
	rep, err := Execute(pl, in, plan, truth, Options{TopUp: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.EmpiricalReliability < 0.75 {
		t.Errorf("reliability %v unreasonably low", rep.EmpiricalReliability)
	}
}

// TestExecuteContextCancelBetweenRetries is the cancellation contract: a
// context canceled mid-execution stops the run at the next bin boundary —
// between retry attempts included — instead of running the plan out.
func TestExecuteContextCancelBetweenRetries(t *testing.T) {
	_, in, plan, truth := jellyEnv(t, 400, 0.95, 7)
	ctx, cancel := context.WithCancel(context.Background())
	const cancelAt = 3
	r := &scriptedRunner{overtime: true, onCall: func(call int) {
		if call == cancelAt {
			cancel() // cancel while this bin's retries still have budget
		}
	}}
	_, err := ExecuteContext(ctx, r, in, plan, truth, Options{MaxRetries: 5})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if r.calls != cancelAt {
		t.Fatalf("issued %d bins after cancel at call %d", r.calls, cancelAt)
	}
	if r.calls >= plan.NumUses() {
		t.Fatalf("test needs a plan longer than the cancel point (%d uses)", plan.NumUses())
	}
}

// TestExecuteContextPreCanceled: an already-canceled context never pays
// for a single bin.
func TestExecuteContextPreCanceled(t *testing.T) {
	_, in, plan, truth := jellyEnv(t, 50, 0.9, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := &scriptedRunner{}
	if _, err := ExecuteContext(ctx, r, in, plan, truth, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if r.calls != 0 {
		t.Fatalf("pre-canceled execution issued %d bins", r.calls)
	}
}

// TestOptionsExplicitZeroBudgets: negative MaxRetries/MaxTopUps mean
// "none" — before the sentinel, zero silently selected the default and a
// retry-free execution was impossible to request.
func TestOptionsExplicitZeroBudgets(t *testing.T) {
	_, in, plan, truth := jellyEnv(t, 100, 0.9, 4)
	r := &scriptedRunner{overtime: true}
	rep, err := ExecuteContext(context.Background(), r, in, plan, truth,
		Options{MaxRetries: -1, TopUp: true, MaxTopUps: -1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.BinsIssued != plan.NumUses() {
		t.Fatalf("no-retry run issued %d bins for %d uses", rep.BinsIssued, plan.NumUses())
	}
	if rep.AbandonedBins != plan.NumUses() {
		t.Fatalf("all-overtime bins must be abandoned without retries: %d/%d", rep.AbandonedBins, plan.NumUses())
	}
	if rep.TopUpRounds != 0 {
		t.Fatalf("MaxTopUps -1 ran %d top-up rounds", rep.TopUpRounds)
	}

	// Zero still selects the defaults.
	o := Options{}.withDefaults()
	if o.MaxRetries != 2 || o.MaxTopUps != 2 {
		t.Fatalf("zero-value defaults: %+v", o)
	}
}

// progressRecorder implements ProgressObserver and keeps every frame.
type progressRecorder struct {
	issued, retried, topUps int
	frames                  []progressFrame
}

type progressFrame struct {
	spent, mass float64
	bins        int
}

func (p *progressRecorder) BinIssued(time.Duration) { p.issued++ }
func (p *progressRecorder) BinRetried()             { p.retried++ }
func (p *progressRecorder) TopUpRound()             { p.topUps++ }
func (p *progressRecorder) Progress(spent, mass float64, bins int) {
	p.frames = append(p.frames, progressFrame{spent: spent, mass: mass, bins: bins})
}

// TestProgressObserverMonotoneTotals pins the ProgressObserver contract:
// one frame per bin issue, totals non-decreasing, and the final frame
// agreeing exactly with the report.
func TestProgressObserverMonotoneTotals(t *testing.T) {
	pl, in, plan, truth := jellyEnv(t, 500, 0.95, 7)
	rec := &progressRecorder{}
	rep, err := Execute(pl, in, plan, truth, Options{Observer: rec, TopUp: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.frames) != rep.BinsIssued {
		t.Fatalf("%d progress frames for %d issued bins", len(rec.frames), rep.BinsIssued)
	}
	for i := 1; i < len(rec.frames); i++ {
		prev, cur := rec.frames[i-1], rec.frames[i]
		if cur.spent < prev.spent || cur.mass < prev.mass || cur.bins != prev.bins+1 {
			t.Fatalf("frame %d not monotone: %+v -> %+v", i, prev, cur)
		}
	}
	last := rec.frames[len(rec.frames)-1]
	if last.spent != rep.Spent || last.bins != rep.BinsIssued || last.mass != rep.DeliveredMassTotal() {
		t.Fatalf("final frame %+v disagrees with report (spent %v bins %d mass %v)",
			last, rep.Spent, rep.BinsIssued, rep.DeliveredMassTotal())
	}
	var sum float64
	for _, m := range rep.DeliveredMass {
		sum += m
	}
	if diff := sum - rep.DeliveredMassTotal(); diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("DeliveredMassTotal %v != per-task sum %v", rep.DeliveredMassTotal(), sum)
	}
	// A plain Observer (no Progress method) still works unchanged.
	if rec.issued != rep.BinsIssued {
		t.Fatalf("BinIssued fired %d times for %d issues", rec.issued, rep.BinsIssued)
	}
}

func TestExecuteNoPositives(t *testing.T) {
	pl, in, plan, _ := jellyEnv(t, 50, 0.9, 2)
	truth := make([]bool, 50) // all negative
	rep, err := Execute(pl, in, plan, truth, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.EmpiricalReliability != 1 {
		t.Errorf("no-positive reliability = %v, want 1", rep.EmpiricalReliability)
	}
}
