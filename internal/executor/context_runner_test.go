package executor

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/crowdsim"
)

// scriptedCtxRunner is a BinRunner over scriptedRunner that can fail: it
// records every BinContext, fails every issue after a number of commits,
// and can send a given bin's first attempt overtime.
type scriptedCtxRunner struct {
	scriptedRunner
	contexts   []BinContext
	failAfter  int          // commits allowed before every issue errors; <0 = never fail
	overtimeAt map[int]bool // bin index → first attempt goes overtime
	commits    int
}

func (r *scriptedCtxRunner) RunBinContext(ctx context.Context, bc BinContext, cardinality int, pay float64, difficulty int, truth []bool) (crowdsim.BinOutcome, error) {
	r.contexts = append(r.contexts, bc)
	if err := ctx.Err(); err != nil {
		return crowdsim.BinOutcome{}, err
	}
	if r.failAfter >= 0 && r.commits >= r.failAfter {
		return crowdsim.BinOutcome{}, errors.New("platform unavailable")
	}
	r.commits++
	out := r.RunBin(cardinality, pay, difficulty, truth)
	if r.overtimeAt[bc.Bin] && bc.Attempt == 0 {
		out.Overtime = true
	}
	return out, nil
}

func TestContextRunnerReceivesAttemptEpochs(t *testing.T) {
	pl, in, plan, truth := jellyEnv(t, 40, 0.9, 3)
	_ = pl
	r := &scriptedCtxRunner{failAfter: -1, overtimeAt: map[int]bool{1: true}}
	rep, err := ExecuteContext(context.Background(), r, in, plan, truth, Options{RunID: "job-1", TopUp: false, MaxTopUps: -1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Degraded {
		t.Fatalf("healthy runner produced degraded report: %q", rep.LastError)
	}
	if len(r.contexts) == 0 {
		t.Fatal("no BinContexts recorded")
	}
	seen := map[[2]int]int{}
	for _, bc := range r.contexts {
		if bc.RunID != "job-1" {
			t.Fatalf("BinContext.RunID = %q, want job-1", bc.RunID)
		}
		seen[[2]int{bc.Bin, bc.Attempt}]++
	}
	for coord, n := range seen {
		if n != 1 {
			t.Fatalf("coordinates (bin=%d, attempt=%d) issued %d times — idempotency keys would collide", coord[0], coord[1], n)
		}
	}
	// The scripted overtime bin must have been re-issued at a NEW attempt
	// epoch (a genuinely new purchase), never a reused one.
	if seen[[2]int{1, 0}] != 1 || seen[[2]int{1, 1}] != 1 {
		t.Fatalf("overtime bin retry epochs: %v", seen)
	}
}

func TestContextRunnerFailureDegradesPartially(t *testing.T) {
	_, in, plan, truth := jellyEnv(t, 200, 0.95, 5)
	r := &scriptedCtxRunner{failAfter: 3}
	rep, err := ExecuteContext(context.Background(), r, in, plan, truth, Options{RunID: "job-2", TopUp: true})
	if err != nil {
		t.Fatalf("degraded execution returned error instead of partial report: %v", err)
	}
	if !rep.Degraded {
		t.Fatal("report not marked degraded")
	}
	if rep.LastError != "platform unavailable" {
		t.Fatalf("LastError = %q", rep.LastError)
	}
	if rep.BinsIssued != 3 {
		t.Fatalf("BinsIssued = %d, want 3 (only committed issues count)", rep.BinsIssued)
	}
	if rep.TopUpRounds != 0 {
		t.Fatalf("degraded execution ran %d top-up rounds", rep.TopUpRounds)
	}
	// Spend covers exactly the committed bins — failed issues are free.
	if rep.Spent <= 0 {
		t.Fatal("no spend accounted for committed bins")
	}
	if rep.DeliveredMassTotal() <= 0 {
		t.Fatal("no delivered mass accounted for committed bins")
	}
}

func TestContextRunnerFullyDownDegradesEmpty(t *testing.T) {
	_, in, plan, truth := jellyEnv(t, 50, 0.9, 9)
	r := &scriptedCtxRunner{failAfter: 0}
	rep, err := ExecuteContext(context.Background(), r, in, plan, truth, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Degraded || rep.BinsIssued != 0 || rep.Spent != 0 {
		t.Fatalf("fully-down report: degraded=%v issued=%d spent=%v", rep.Degraded, rep.BinsIssued, rep.Spent)
	}
}

func TestContextRunnerCancelReturnsCtxErr(t *testing.T) {
	_, in, plan, truth := jellyEnv(t, 50, 0.9, 11)
	ctx, cancel := context.WithCancel(context.Background())
	r := &scriptedCtxRunner{failAfter: -1}
	r.onCall = func(call int) {
		if call == 2 {
			cancel()
		}
	}
	_, err := ExecuteContext(ctx, r, in, plan, truth, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled execution returned %v, want context.Canceled", err)
	}
}

func TestContextRunnerTopUpContinuesBinSequence(t *testing.T) {
	// Force a gap (first-attempt overtime with retries disabled) so a
	// top-up round runs, and check the top-up bins continue the Bin
	// sequence instead of restarting at zero.
	_, in, plan, truth := jellyEnv(t, 40, 0.9, 13)
	over := map[int]bool{}
	for i := 0; i < plan.NumUses(); i++ {
		over[i] = true
	}
	r := &scriptedCtxRunner{failAfter: -1, overtimeAt: over}
	rep, err := ExecuteContext(context.Background(), r, in, plan, truth, Options{MaxRetries: -1, TopUp: true, MaxTopUps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TopUpRounds != 1 {
		t.Fatalf("TopUpRounds = %d, want 1", rep.TopUpRounds)
	}
	maxBin := -1
	seen := map[[2]int]bool{}
	for _, bc := range r.contexts {
		coord := [2]int{bc.Bin, bc.Attempt}
		if seen[coord] {
			t.Fatalf("duplicate coordinates (bin=%d, attempt=%d) across rounds", bc.Bin, bc.Attempt)
		}
		seen[coord] = true
		if bc.Bin > maxBin {
			maxBin = bc.Bin
		}
	}
	if maxBin < plan.NumUses() {
		t.Fatalf("top-up bins did not extend the sequence: max bin %d, plan uses %d", maxBin, plan.NumUses())
	}
}

// TestRunnerFuncPaysEveryIssue: an in-process runner adapted by
// RunnerFunc never fails, so every issue commits — overtime issues
// included — and the accounting is pay-on-issue.
func TestRunnerFuncPaysEveryIssue(t *testing.T) {
	_, in, plan, truth := jellyEnv(t, 40, 0.9, 3)
	r := &scriptedRunner{overtime: true}
	rep, err := ExecuteContext(context.Background(), RunnerFunc(r.RunBin), in, plan, truth, Options{MaxRetries: 1, MaxTopUps: -1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Degraded {
		t.Fatal("RunnerFunc produced a degraded report")
	}
	wantIssues := plan.NumUses() * 2 // every bin + one retry, all overtime
	if rep.BinsIssued != wantIssues || rep.AbandonedBins != plan.NumUses() {
		t.Fatalf("issued=%d abandoned=%d, want issued=%d abandoned=%d",
			rep.BinsIssued, rep.AbandonedBins, wantIssues, plan.NumUses())
	}
	if rep.BinsIssued != r.calls {
		t.Fatalf("issued=%d for %d runner calls", rep.BinsIssued, r.calls)
	}
	if d := rep.Spent - 2*rep.PlannedCost; d > 1e-9 || d < -1e-9 {
		t.Fatalf("spent %v, want twice the planned %v", rep.Spent, rep.PlannedCost)
	}
	if rep.MakeSpan != time.Second {
		t.Fatalf("MakeSpan = %v", rep.MakeSpan)
	}
}
