package service

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/binset"
	"repro/internal/core"
	"repro/internal/opq"
	"repro/internal/store"
)

// unbatchedCost is the reference every batched request must match: the
// one-shot OPQ-Based cost of solving the instance alone.
func unbatchedCost(t *testing.T, in *core.Instance) float64 {
	t.Helper()
	ref, err := (opq.Solver{}).Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	return ref.MustCost(in.Bins())
}

// TestBatchCostParityInvariant is the batcher's acceptance invariant:
// requests of mixed sizes coalesced into one flush each receive a
// feasible plan that encodes byte for byte as the unbatched solve of the
// same instance does. The batch is made deterministic by sizing the cap
// to the request count, so the final join flushes it without waiting out
// the (long) window.
func TestBatchCostParityInvariant(t *testing.T) {
	menu := binset.Table1()
	const thr = 0.95
	sizes := []int{37, 37, 200, 5, 200, 37, 1, 64}

	svc := New(Config{
		Workers:          4,
		BatchWindow:      time.Minute, // cap, not timer, must flush
		BatchMaxRequests: len(sizes),
	})
	defer svc.Close()

	type result struct {
		plan *core.Plan
		sum  PlanSummary
		err  error
	}
	results := make([]result, len(sizes))
	var wg sync.WaitGroup
	for i, n := range sizes {
		in := core.MustHomogeneous(menu, n, thr)
		wg.Add(1)
		go func(i int, in *core.Instance) {
			defer wg.Done()
			plan, sum, err := svc.DecomposeSummarized(context.Background(), DefaultSolverName, in)
			results[i] = result{plan, sum, err}
		}(i, in)
	}
	wg.Wait()

	for i, n := range sizes {
		r := results[i]
		if r.err != nil {
			t.Fatalf("request %d: %v", i, r.err)
		}
		in := core.MustHomogeneous(menu, n, thr)
		if err := r.plan.Validate(in); err != nil {
			t.Fatalf("request %d: invalid plan: %v", i, err)
		}
		solo, err := (opq.Solver{}).Solve(in)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encodePlan(t, r.plan), encodePlan(t, solo)) {
			t.Errorf("request %d (n=%d): batched plan is not byte-identical to the solo solve", i, n)
		}
		if want := solo.MustCost(menu); r.sum.Cost != want || r.sum.NumUses != r.plan.NumUses() {
			t.Errorf("request %d: summary %+v disagrees with plan (cost %v, uses %d)",
				i, r.sum, want, r.plan.NumUses())
		}
	}

	st := svc.Stats()
	if st.Batch.Batches != 1 || st.Batch.BatchedRequests != uint64(len(sizes)) {
		t.Errorf("batch stats %+v, want 1 batch of %d", st.Batch, len(sizes))
	}
	if st.Batch.WindowTimeouts != 0 {
		t.Errorf("cap-flushed batch counted %d window timeouts", st.Batch.WindowTimeouts)
	}
	if st.Batch.MeanSize != float64(len(sizes)) {
		t.Errorf("batch mean size %v, want %d", st.Batch.MeanSize, len(sizes))
	}
	if st.Cache.Builds != 1 {
		t.Errorf("one key should build one queue, got %d", st.Cache.Builds)
	}
}

// TestBatchWindowTimeoutFlush covers the lone-request path: with no
// peers, the window timer flushes a batch of one and the request still
// gets its exact unbatched plan.
func TestBatchWindowTimeoutFlush(t *testing.T) {
	svc := New(Config{BatchWindow: 2 * time.Millisecond, Workers: 2})
	defer svc.Close()
	in := core.MustHomogeneous(binset.Table1(), 10, 0.95)
	plan, err := svc.Decompose(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := plan.MustCost(in.Bins()), unbatchedCost(t, in); got != want {
		t.Errorf("cost %v != unbatched %v", got, want)
	}
	st := svc.Stats().Batch
	if st.Batches != 1 || st.BatchedRequests != 1 || st.WindowTimeouts != 1 {
		t.Errorf("batch stats %+v, want one timed-out batch of one", st)
	}
	if st.MeanSize != 1 {
		t.Errorf("mean size %v, want 1", st.MeanSize)
	}
}

// TestBatchDrainHandoffFlushesWithoutWindow pins the double-buffering
// rule: a batch that forms while the key's previous flush is solving is
// flushed the moment that flush completes — it never waits out the
// window. The window here is a full minute, so only the handoff can
// finish the test in time.
func TestBatchDrainHandoffFlushesWithoutWindow(t *testing.T) {
	menu := binset.Table1()
	in := core.MustHomogeneous(menu, 500, 0.95)
	svc := New(Config{Workers: 2, BatchWindow: time.Minute, BatchMaxRequests: 2})
	defer svc.Close()
	// The run-form solve is too fast to outlast even µs-scale joins, so
	// slow the first flush down deterministically instead: its cold
	// cache.Get pays this injected build delay, guaranteeing the third
	// member joins the successor batch while the first flush is still in
	// flight.
	svc.cache = NewOPQCacheWithBuilder(DefaultCacheSize, func(bins core.BinSet, th float64) (*opq.Queue, error) {
		time.Sleep(300 * time.Millisecond)
		return opq.Build(bins, th)
	})
	svc.sharded.Cache = svc.cache

	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = svc.Decompose(context.Background(), in)
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("third member waited for the window; drain handoff did not fire")
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	st := svc.Stats().Batch
	if st.Batches != 2 || st.BatchedRequests != 3 {
		t.Errorf("batch stats %+v, want 2 batches serving 3 requests", st)
	}
	if st.WindowTimeouts != 0 {
		t.Errorf("handoff-flushed batches counted %d window timeouts", st.WindowTimeouts)
	}
}

// TestBatchMemberCancelLeavesSiblings pins the DELETE-one-member
// semantics at the batcher level: a caller canceled while the batch is
// pending gets ctx.Err() promptly, and its siblings still receive exact
// plans from the flush.
func TestBatchMemberCancelLeavesSiblings(t *testing.T) {
	menu := binset.Table1()
	svc := New(Config{Workers: 2, BatchWindow: 250 * time.Millisecond, BatchMaxRequests: 64})
	defer svc.Close()

	in := core.MustHomogeneous(menu, 30, 0.95)
	ctx, cancel := context.WithCancel(context.Background())

	var wg sync.WaitGroup
	errs := make([]error, 3)
	costs := make([]float64, 3)
	for i := 0; i < 3; i++ {
		reqCtx := context.Background()
		if i == 0 {
			reqCtx = ctx
		}
		wg.Add(1)
		go func(i int, reqCtx context.Context) {
			defer wg.Done()
			plan, err := svc.Decompose(reqCtx, in)
			errs[i] = err
			if err == nil {
				costs[i] = plan.MustCost(menu)
			}
		}(i, reqCtx)
	}
	time.Sleep(30 * time.Millisecond) // let all three join the pending batch
	cancel()
	wg.Wait()

	if !errors.Is(errs[0], context.Canceled) {
		t.Fatalf("canceled member returned %v, want context.Canceled", errs[0])
	}
	want := unbatchedCost(t, in)
	for i := 1; i < 3; i++ {
		if errs[i] != nil {
			t.Fatalf("sibling %d failed: %v", i, errs[i])
		}
		if costs[i] != want {
			t.Errorf("sibling %d cost %v != unbatched %v", i, costs[i], want)
		}
	}
	if st := svc.Stats().Batch; st.BatchedRequests != 2 {
		t.Errorf("batch served %d requests, want 2 (the canceled member left)", st.BatchedRequests)
	}
}

// TestBatchBypassesIneligibleRequests: heterogeneous instances, named
// non-default solvers, empty instances, and a re-registered "sharded"
// all route around the batcher.
func TestBatchBypassesIneligibleRequests(t *testing.T) {
	menu := binset.Table1()
	svc := New(Config{Workers: 2, BatchWindow: 50 * time.Millisecond})
	defer svc.Close()
	ctx := context.Background()

	het := core.MustHeterogeneous(menu, []float64{0.9, 0.95, 0.8})
	if _, err := svc.Decompose(ctx, het); err != nil {
		t.Fatalf("heterogeneous: %v", err)
	}
	hom := core.MustHomogeneous(menu, 9, 0.95)
	if _, err := svc.DecomposeWith(ctx, "greedy", hom); err != nil {
		t.Fatalf("greedy: %v", err)
	}
	empty := core.MustHomogeneous(menu, 0, 0.95)
	if _, err := svc.Decompose(ctx, empty); err != nil {
		t.Fatalf("empty: %v", err)
	}
	if st := svc.Stats().Batch; st.Batches != 0 || st.BatchedRequests != 0 {
		t.Errorf("ineligible requests were batched: %+v", st)
	}
	if st := svc.Stats().Batch; !st.Enabled {
		t.Error("batching configured but reported disabled")
	}

	// A replacement under the default name must win over the batcher.
	if err := svc.RegisterSolver(DefaultSolverName, countingSolver{calls: new(int)}); err != nil {
		t.Fatal(err)
	}
	cs, _ := svc.solver(DefaultSolverName)
	if _, err := svc.Decompose(ctx, hom); err != nil {
		t.Fatalf("re-registered solver: %v", err)
	}
	if got := *cs.(countingSolver).calls; got != 1 {
		t.Errorf("re-registered solver called %d times, want 1", got)
	}
}

// countingSolver counts Solve calls; used to prove routing.
type countingSolver struct{ calls *int }

func (c countingSolver) Name() string { return "counting" }
func (c countingSolver) Solve(in *core.Instance) (*core.Plan, error) {
	*c.calls++
	return (opq.Solver{}).Solve(in)
}

// TestBatchStatsDisabled: a batch-less service reports Enabled=false.
func TestBatchStatsDisabled(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	if st := svc.Stats().Batch; st.Enabled || st.Batches != 0 {
		t.Errorf("unexpected batch stats on a batch-less service: %+v", st)
	}
}

// TestBatchedJobsPersistAndReplayIndividually: solve jobs that were
// coalesced into one flush still settle, spill to the store, and
// replay after a restart as individual jobs with their own plans.
func TestBatchedJobsPersistAndReplayIndividually(t *testing.T) {
	menu := binset.Table1()
	st := store.NewMem()
	svc := New(Config{
		Workers: 4, MaxJobs: 4, Store: st,
		BatchWindow: 20 * time.Millisecond, BatchMaxRequests: 4,
	})

	sizes := []int{12, 30, 12, 7}
	ids := make([]string, len(sizes))
	for i, n := range sizes {
		in := core.MustHomogeneous(menu, n, 0.95)
		id, err := svc.Jobs().Submit(JobRequest{Instance: in})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	for _, id := range ids {
		if got := waitTerminal(t, svc, id); got.State != JobDone {
			t.Fatalf("job %s settled %s (%s)", id, got.State, got.Error)
		}
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	revived := New(Config{Store: st})
	defer revived.Close()
	if rec := revived.Stats().Jobs.Recovered; rec != uint64(len(sizes)) {
		t.Fatalf("recovered %d jobs, want %d", rec, len(sizes))
	}
	for i, id := range ids {
		in := core.MustHomogeneous(menu, sizes[i], 0.95)
		plan, err := revived.Jobs().Result(id)
		if err != nil {
			t.Fatalf("job %s: %v", id, err)
		}
		if err := plan.Validate(in); err != nil {
			t.Fatalf("job %s: replayed plan invalid: %v", id, err)
		}
		if got, want := plan.MustCost(menu), unbatchedCost(t, in); got != want {
			t.Errorf("job %s: replayed cost %v != unbatched %v", id, got, want)
		}
	}
}

// TestBatchJobDeleteRemovesMemberOnly: canceling one batched solve job
// mid-window removes it from the pending batch without cancelling its
// siblings — the composition with the PR 3 DELETE semantics.
func TestBatchJobDeleteRemovesMemberOnly(t *testing.T) {
	menu := binset.Table1()
	svc := New(Config{
		Workers: 4, MaxJobs: 4,
		BatchWindow: 250 * time.Millisecond, BatchMaxRequests: 64,
	})
	defer svc.Close()

	in := core.MustHomogeneous(menu, 21, 0.95)
	ids := make([]string, 3)
	for i := range ids {
		id, err := svc.Jobs().Submit(JobRequest{Instance: in})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	// Wait for every job to be inside the solve (running ⇒ parked in the
	// pending batch or about to be), then delete one.
	deadline := time.Now().Add(5 * time.Second)
	for {
		running := 0
		for _, id := range ids {
			if js, err := svc.Jobs().Status(id); err == nil && js.State == JobRunning {
				running++
			}
		}
		if running == len(ids) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("jobs never all started running")
		}
		time.Sleep(time.Millisecond)
	}
	if err := svc.Jobs().Cancel(ids[0]); err != nil {
		t.Fatal(err)
	}

	if got := waitTerminal(t, svc, ids[0]); got.State != JobCanceled {
		t.Fatalf("deleted job settled %s, want canceled", got.State)
	}
	want := unbatchedCost(t, in)
	for _, id := range ids[1:] {
		if got := waitTerminal(t, svc, id); got.State != JobDone {
			t.Fatalf("sibling %s settled %s (%s)", id, got.State, got.Error)
		}
		plan, err := svc.Jobs().Result(id)
		if err != nil {
			t.Fatal(err)
		}
		if got := plan.MustCost(menu); got != want {
			t.Errorf("sibling %s cost %v != unbatched %v", id, got, want)
		}
	}
}
