package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/binset"
	"repro/internal/core"
	"repro/internal/distgen"
	"repro/internal/hetero"
	"repro/internal/obs"
	"repro/internal/opq"
	"repro/internal/stream"
)

// menuB returns a second menu distinct from Table1 so cache-key tests can
// exercise multiple keys.
func menuB() core.BinSet {
	return core.MustBinSet([]core.TaskBin{
		{Cardinality: 1, Confidence: 0.92, Cost: 0.12},
		{Cardinality: 2, Confidence: 0.88, Cost: 0.20},
		{Cardinality: 4, Confidence: 0.81, Cost: 0.30},
	})
}

func TestCacheHitMissAndLRU(t *testing.T) {
	c := NewOPQCache(2)
	m1, m2 := binset.Table1(), menuB()

	if _, err := c.Get(m1, 0.9); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(m1, 0.9); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Builds != 1 {
		t.Fatalf("after repeat get: %+v", st)
	}

	// Fill to capacity, then touch m1 so m2@0.9 is the LRU victim.
	if _, err := c.Get(m2, 0.9); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(m1, 0.9); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(m2, 0.95); err != nil {
		t.Fatal(err)
	}
	st = c.Stats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("after eviction: %+v", st)
	}
	if c.Contains(m2, 0.9) {
		t.Fatal("LRU victim m2@0.9 still resident")
	}
	if !c.Contains(m1, 0.9) || !c.Contains(m2, 0.95) {
		t.Fatal("recently used entries were evicted")
	}
}

func TestCacheCoalescesConcurrentBuilds(t *testing.T) {
	var builds int
	var mu sync.Mutex
	slow := func(bins core.BinSet, th float64) (*opq.Queue, error) {
		mu.Lock()
		builds++
		mu.Unlock()
		time.Sleep(20 * time.Millisecond) // hold the build so peers coalesce
		return opq.Build(bins, th)
	}
	c := NewOPQCacheWithBuilder(8, slow)
	menu := binset.Table1()

	const callers = 32
	var wg sync.WaitGroup
	start := make(chan struct{})
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			_, errs[i] = c.Get(menu, 0.9)
		}(i)
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	if builds != 1 {
		t.Fatalf("want exactly 1 build, got %d", builds)
	}
	st := c.Stats()
	if st.Coalesced != callers-1 {
		t.Fatalf("want %d coalesced waiters, got %+v", callers-1, st)
	}
}

func TestCacheDoesNotCacheErrors(t *testing.T) {
	fails := 0
	c := NewOPQCacheWithBuilder(8, func(bins core.BinSet, th float64) (*opq.Queue, error) {
		fails++
		return nil, fmt.Errorf("boom %d", fails)
	})
	menu := binset.Table1()
	if _, err := c.Get(menu, 0.9); err == nil {
		t.Fatal("want error")
	}
	if _, err := c.Get(menu, 0.9); err == nil {
		t.Fatal("want error on retry")
	}
	if fails != 2 {
		t.Fatalf("failing key should rebuild per Get, built %d times", fails)
	}
	if c.Len() != 0 {
		t.Fatal("error result was cached")
	}
}

// encodePlan renders the plan's wire bytes, the strictest equality two
// plans can be held to.
func encodePlan(t *testing.T, p *core.Plan) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := p.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestShardedCostEqualsUnshardedHomogeneous: the service's cached solve is
// the library's OPQ-Based solve — the same bytes on the wire, hence the
// same cost, for whole-block and remainder sizes alike.
func TestShardedCostEqualsUnshardedHomogeneous(t *testing.T) {
	menu := binset.Table1()
	s := &ShardedSolver{Cache: NewOPQCache(8)}
	for _, n := range []int{1, 5, 36, 100, 1000, 4097} {
		in := core.MustHomogeneous(menu, n, 0.95)
		ref, err := opq.Solver{}.Solve(in)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.Solve(in)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := got.Validate(in); err != nil {
			t.Fatalf("n=%d: invalid plan: %v", n, err)
		}
		if !bytes.Equal(encodePlan(t, got), encodePlan(t, ref)) {
			t.Fatalf("n=%d: EncodeJSON differs from opq.Solver's", n)
		}
	}
}

func TestShardedCostEqualsUnshardedHeterogeneous(t *testing.T) {
	menu := binset.Table1()
	th, err := distgen.Normal(2000, 0.9, 0.03, distgen.DefaultBounds, 7)
	if err != nil {
		t.Fatal(err)
	}
	in := core.MustHeterogeneous(menu, th)
	ref, err := hetero.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := (&ShardedSolver{Cache: NewOPQCache(8)}).Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(in); err != nil {
		t.Fatalf("invalid plan: %v", err)
	}
	if !bytes.Equal(encodePlan(t, got), encodePlan(t, ref)) {
		t.Fatal("EncodeJSON differs from hetero.Solve's")
	}
}

// TestLibraryEqualsServiceHeterogeneous: OPQ-Extended is one code path
// whether called as a library or through the service's cached solver —
// the same bytes on the wire, the same cost to the last bit, and the same
// handful of runs in memory.
func TestLibraryEqualsServiceHeterogeneous(t *testing.T) {
	menu := binset.Table1()
	th, err := distgen.Normal(3000, 0.88, 0.04, distgen.DefaultBounds, 11)
	if err != nil {
		t.Fatal(err)
	}
	in := core.MustHeterogeneous(menu, th)
	want, err := (&ShardedSolver{Cache: NewOPQCache(8), Workers: 1}).Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := want.Validate(in); err != nil {
		t.Fatal(err)
	}
	got, err := hetero.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodePlan(t, got), encodePlan(t, want)) {
		t.Error("hetero.Solve: EncodeJSON differs from the service solver's")
	}
	if gc, wc := got.MustCost(menu), want.MustCost(menu); gc != wc {
		t.Errorf("hetero.Solve: cost %v != service %v", gc, wc)
	}
	if gr, wr := len(got.Runs().Runs), len(want.Runs().Runs); gr != wr {
		t.Errorf("hetero.Solve: %d runs in memory, service solver holds %d", gr, wr)
	}
}

func TestShardedSolverEdgeCases(t *testing.T) {
	s := &ShardedSolver{Cache: NewOPQCache(4)}
	plan, err := s.Solve(core.MustHomogeneous(binset.Table1(), 0, 0.9))
	if err != nil || plan.NumUses() != 0 {
		t.Fatalf("empty instance: plan=%v err=%v", plan, err)
	}
	if _, err := s.Solve(nil); err == nil {
		t.Fatal("nil instance must error")
	}
	if _, err := (&ShardedSolver{}).Solve(core.MustHomogeneous(binset.Table1(), 3, 0.9)); err == nil {
		t.Fatal("cacheless solver must error")
	}
}

func TestShardedSolveContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := &ShardedSolver{Cache: NewOPQCache(4), Workers: 4}
	in := core.MustHomogeneous(binset.Table1(), 10_000, 0.95)
	if _, err := s.SolveContext(ctx, in); err == nil {
		t.Fatal("canceled context must abort the solve")
	}
}

// queuedCtx closes queued the first time its Done channel is asked for. In
// ShardedSolver.acquire that happens inside the slot select, after the
// wait clock has started — so a closed queued means "this solve is
// waiting", without a sleep.
type queuedCtx struct {
	context.Context
	once   sync.Once
	queued chan struct{}
}

func (c *queuedCtx) Done() <-chan struct{} {
	c.once.Do(func() { close(c.queued) })
	return c.Context.Done()
}

// queueSolve starts solve on its own goroutine under a queuedCtx and
// returns once it is waiting for a slot; its result arrives on the
// returned channel. The caller holds every slot.
func queueSolve(parent context.Context, solve func(context.Context) error) <-chan error {
	ctx := &queuedCtx{Context: parent, queued: make(chan struct{})}
	done := make(chan error, 1)
	go func() { done <- solve(ctx) }()
	<-ctx.queued
	return done
}

// TestShardedSolverGatesAcrossRequests: Workers is one service-wide bound.
// With the single slot held by the test a second solve queues, a canceled
// one leaves without ever taking a slot, and after release the queued
// solve's wait — created by the hold, not by load — is in QueueWait.
func TestShardedSolverGatesAcrossRequests(t *testing.T) {
	reg := obs.NewRegistry()
	o := &ShardPoolObs{
		SolveDuration: reg.Histogram("solve_seconds", "", obs.HistogramOpts{}),
		QueueWait:     reg.Histogram("wait_seconds", "", obs.HistogramOpts{}),
		ShardJobs:     reg.Counter("solves_total", ""),
	}
	s := &ShardedSolver{Cache: NewOPQCache(4), Workers: 1, Obs: o}
	in := core.MustHomogeneous(binset.Table1(), 1000, 0.95)
	solve := func(ctx context.Context) error {
		_, err := s.SolveContext(ctx, in)
		return err
	}

	if err := s.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	second := queueSolve(context.Background(), solve)

	// A third solve queues behind it and gives up on cancellation; one
	// canceled before it asks is refused outright.
	cctx, cancel := context.WithCancel(context.Background())
	third := queueSolve(cctx, solve)
	cancel()
	if err := <-third; !errors.Is(err, context.Canceled) {
		t.Fatalf("solve canceled while queued: err=%v, want context.Canceled", err)
	}
	if err := solve(cctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("solve with a canceled context: err=%v, want context.Canceled", err)
	}
	if got, held := o.ShardJobs.Value(), len(s.slots); got != 0 || held != 1 {
		t.Fatalf("with the only slot held: %d solves ran, %d slots taken (want 0 and 1)", got, held)
	}

	// Everything the second solve waits from here on is the hold.
	waited := o.QueueWait.Sum()
	held := time.Now()
	time.Sleep(20 * time.Millisecond)
	hold := time.Since(held)
	s.release()
	if err := <-second; err != nil {
		t.Fatalf("queued solve after release: %v", err)
	}
	if got, held := o.ShardJobs.Value(), len(s.slots); got != 1 || held != 0 {
		t.Fatalf("after release: %d solves ran, %d slots taken (want 1 and 0)", got, held)
	}
	// Observed waits: the test's own acquire, the abandoned third, the
	// queued second. The pre-canceled solve never waited.
	if n := o.QueueWait.Count(); n != 3 {
		t.Fatalf("QueueWait observed %d waits, want 3", n)
	}
	if got := o.QueueWait.Sum() - waited; got < hold.Seconds() {
		t.Fatalf("QueueWait grew by %.4fs across a %.4fs hold", got, hold.Seconds())
	}
}

func TestServiceDecomposeAndSolverRegistry(t *testing.T) {
	svc := New(Config{CacheSize: 8, Workers: 2})
	in := core.MustHomogeneous(binset.Table1(), 200, 0.9)

	plan, err := svc.Decompose(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(in); err != nil {
		t.Fatal(err)
	}

	for _, name := range []string{"greedy", "opq", "opq-extended", "baseline"} {
		p, err := svc.DecomposeWith(context.Background(), name, in)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := p.Validate(in); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if _, err := svc.DecomposeWith(context.Background(), "nope", in); err == nil {
		t.Fatal("unknown solver must error")
	}

	st := svc.Stats()
	if st.Requests != 6 || st.Errors != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if st.Cache.Builds == 0 {
		t.Fatal("decompose should have built at least one queue")
	}
}

func TestJobLifecycleSolve(t *testing.T) {
	svc := New(Config{CacheSize: 8, Workers: 2})
	in := core.MustHomogeneous(binset.Table1(), 500, 0.9)
	id, err := svc.Jobs().Submit(JobRequest{Instance: in})
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, svc, id)
	if st.State != JobDone {
		t.Fatalf("job state %s (err %q)", st.State, st.Error)
	}
	if st.Summary == nil || st.Summary.Cost <= 0 {
		t.Fatalf("missing summary: %+v", st)
	}
	plan, err := svc.Jobs().Result(id)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(in); err != nil {
		t.Fatal(err)
	}
	if err := svc.Jobs().Cancel(id); err == nil {
		t.Fatal("canceling a done job must error")
	}
	if err := svc.Jobs().EvictJob(id); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Jobs().Status(id); err == nil {
		t.Fatal("evicted job still queryable")
	}
}

func TestJobLifecycleStream(t *testing.T) {
	svc := New(Config{CacheSize: 8, Workers: 2})
	menu := binset.Table1()

	// Batches slicing must not affect total cost (stream planner invariant):
	// compare against the one-shot OPQ-Based solve of the same 100 tasks.
	ids := make([]int, 100)
	for i := range ids {
		ids[i] = i
	}
	id, err := svc.Jobs().Submit(JobRequest{Stream: &StreamJob{
		Bins:      menu,
		Threshold: 0.95,
		Batches:   [][]int{ids[:7], ids[7:40], ids[40:41], ids[41:]},
	}})
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, svc, id)
	if st.State != JobDone {
		t.Fatalf("stream job state %s (err %q)", st.State, st.Error)
	}
	plan, err := svc.Jobs().Result(id)
	if err != nil {
		t.Fatal(err)
	}
	in := core.MustHomogeneous(menu, 100, 0.95)
	ref, err := opq.Solver{}.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := plan.MustCost(menu), ref.MustCost(menu); got != want {
		t.Fatalf("streamed cost %v != one-shot cost %v", got, want)
	}
	if err := plan.Validate(in); err != nil {
		t.Fatal(err)
	}
}

func TestJobSubmitValidation(t *testing.T) {
	svc := New(Config{CacheSize: 8})
	if _, err := svc.Jobs().Submit(JobRequest{}); err == nil {
		t.Fatal("empty request must error")
	}
	in := core.MustHomogeneous(binset.Table1(), 10, 0.9)
	if _, err := svc.Jobs().Submit(JobRequest{Instance: in, Solver: "nope"}); err == nil {
		t.Fatal("unknown solver must be rejected at submit")
	}
	if _, err := svc.Jobs().Submit(JobRequest{
		Instance: in,
		Stream:   &StreamJob{Bins: binset.Table1(), Threshold: 0.9},
	}); err == nil {
		t.Fatal("instance+stream must error")
	}
	if _, err := svc.Jobs().Submit(JobRequest{
		Stream: &StreamJob{Bins: binset.Table1(), Threshold: 1.5},
	}); err == nil {
		t.Fatal("out-of-range stream threshold must error")
	}
	if _, err := svc.Jobs().Submit(JobRequest{
		Stream: &StreamJob{Bins: binset.Table1(), Threshold: 0.9, Batches: [][]int{{0, 1}, {1, 2}}},
	}); err == nil {
		t.Fatal("duplicate stream task ids must be rejected (they would corrupt block expansion)")
	}
}

func TestJobCancelPending(t *testing.T) {
	// MaxJobs=1 plus a slow first job keeps the second job pending long
	// enough to cancel it deterministically.
	svc := New(Config{CacheSize: 8, Workers: 1, MaxJobs: 1})
	block := make(chan struct{})
	if err := svc.RegisterSolver("slow", core.SolverFunc{
		SolverName: "slow",
		Fn: func(in *core.Instance) (*core.Plan, error) {
			<-block
			return &core.Plan{}, nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	in := core.MustHomogeneous(binset.Table1(), 10, 0.9)
	first, err := svc.Jobs().Submit(JobRequest{Instance: in, Solver: "slow"})
	if err != nil {
		t.Fatal(err)
	}
	second, err := svc.Jobs().Submit(JobRequest{Instance: in})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Jobs().Cancel(second); err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, svc, second)
	if st.State != JobCanceled {
		t.Fatalf("want canceled, got %s", st.State)
	}
	if _, err := svc.Jobs().Result(second); err == nil {
		t.Fatal("result of canceled job must error")
	}
	close(block)
	if st := waitTerminal(t, svc, first); st.State != JobDone {
		t.Fatalf("first job: %s", st.State)
	}
}

func TestJobCancelRunningContextUnawareSolver(t *testing.T) {
	// A plain core.Solver ignores the context; a cancel during its run must
	// still settle the job Canceled, not Done.
	svc := New(Config{CacheSize: 8, MaxJobs: 1})
	block := make(chan struct{})
	running := make(chan struct{})
	if err := svc.RegisterSolver("slow", core.SolverFunc{
		SolverName: "slow",
		Fn: func(in *core.Instance) (*core.Plan, error) {
			close(running)
			<-block
			return &core.Plan{}, nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	in := core.MustHomogeneous(binset.Table1(), 10, 0.9)
	id, err := svc.Jobs().Submit(JobRequest{Instance: in, Solver: "slow"})
	if err != nil {
		t.Fatal(err)
	}
	<-running
	if err := svc.Jobs().Cancel(id); err != nil {
		t.Fatal(err)
	}
	close(block) // solver finishes "successfully" after the cancel
	st := waitTerminal(t, svc, id)
	if st.State != JobCanceled {
		t.Fatalf("want canceled, got %s", st.State)
	}
}

func TestSameKey(t *testing.T) {
	m1, m2 := binset.Table1(), menuB()
	if !sameKey(m1, 0.9, m1, 0.9) {
		t.Fatal("identical keys must match")
	}
	if sameKey(m1, 0.9, m1, 0.95) || sameKey(m1, 0.9, m2, 0.9) {
		t.Fatal("distinct keys must not match")
	}
}

// waitTerminal polls until the job settles.
func waitTerminal(t *testing.T, svc *Service, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st, err := svc.Jobs().Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State.Terminal() {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s did not settle", id)
	return JobStatus{}
}

func TestStreamPlannerReuseViaReset(t *testing.T) {
	// The service never reuses a flushed planner (one per job); Reset is
	// the sanctioned path for pools that do. Verify it yields a fresh
	// stream with identical behavior on the shared queue.
	q, err := opq.Build(binset.Table1(), 0.95)
	if err != nil {
		t.Fatal(err)
	}
	p, err := stream.NewPlannerWithQueue(q)
	if err != nil {
		t.Fatal(err)
	}
	ids := []int{0, 1, 2, 3, 4, 5, 6}
	if _, err := p.Add(ids...); err != nil {
		t.Fatal(err)
	}
	first, err := p.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if !p.Flushed() {
		t.Fatal("planner should report flushed")
	}
	if _, err := p.Add(9); err == nil {
		t.Fatal("flushed planner must reject Add")
	}
	cost1 := p.EmittedCost()

	p.Reset()
	if p.Flushed() || p.Pending() != 0 || p.EmittedCost() != 0 || p.EmittedTasks() != 0 {
		t.Fatalf("reset planner not pristine: flushed=%v pending=%d", p.Flushed(), p.Pending())
	}
	if _, err := p.Add(ids...); err != nil {
		t.Fatal(err)
	}
	second, err := p.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if p.EmittedCost() != cost1 {
		t.Fatalf("second stream cost %v != first %v", p.EmittedCost(), cost1)
	}
	if first.NumUses() != second.NumUses() {
		t.Fatalf("second stream shape differs: %d vs %d uses", second.NumUses(), first.NumUses())
	}
}
