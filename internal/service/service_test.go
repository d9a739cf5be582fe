package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/binset"
	"repro/internal/core"
	"repro/internal/distgen"
	"repro/internal/hetero"
	"repro/internal/obs"
	"repro/internal/opq"
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
	get := func(bins core.BinSet, th float64) CacheStats {
		if _, err := c.Get(bins, th); err != nil {
			t.Fatal(err)
		}
		return c.Stats()
	}
	get(m1, 0.9)
	if got := get(m2, 0.95); got.Hits != st.Hits+2 || got.Misses != st.Misses {
		t.Fatalf("recently used entries were evicted: %+v", got)
	}
	if got := get(m2, 0.9); got.Misses != st.Misses+1 {
		t.Fatal("LRU victim m2@0.9 still resident")
	}
}

func TestCacheCoalescesConcurrentBuilds(t *testing.T) {
	var builds int
	var mu sync.Mutex
	slow := func(bins core.BinSet, th float64) (*opq.Queue, opq.Piece, error) {
		mu.Lock()
		builds++
		mu.Unlock()
		time.Sleep(20 * time.Millisecond) // hold the build so peers coalesce
		return opq.BuildPiece(bins, th)
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
	c := NewOPQCacheWithBuilder(8, func(bins core.BinSet, th float64) (*opq.Queue, opq.Piece, error) {
		fails++
		return nil, opq.Piece{}, fmt.Errorf("boom %d", fails)
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
	if c.Stats().Entries != 0 {
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
	if gr, wr := len(got.Runs), len(want.Runs); gr != wr {
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

	plan, err := svc.DecomposeWith(context.Background(), svc.DefaultSolver(), in)
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
	plan := jobPlan(t, svc.Jobs(), id)
	if err := plan.Validate(in); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Jobs().Cancel(id); err == nil {
		t.Fatal("canceling a done job must error")
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
	waitRunning(t, svc, first)
	second, err := svc.Jobs().Submit(JobRequest{Instance: in})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Jobs().Cancel(second); err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, svc, second)
	if st.State != JobCanceled {
		t.Fatalf("want canceled, got %s", st.State)
	}
	if _, plan, _, _ := svc.Jobs().snapshot(second); plan != nil {
		t.Fatal("canceled job serves a plan")
	}
	close(block)
	if st := waitTerminal(t, svc, first); st.State != JobDone {
		t.Fatalf("first job: %s", st.State)
	}
}

// TestCancelPendingUnderShortTTL: DELETE answers with the status Cancel
// settled the job to. Read again after the cancel, a pending job canceled
// under a one-nanosecond result TTL has already expired, and the route
// answered 500 unknown job.
func TestCancelPendingUnderShortTTL(t *testing.T) {
	svc := New(Config{CacheSize: 8, Workers: 1, MaxJobs: 1, ResultTTL: time.Nanosecond, Slog: slog.New(slog.DiscardHandler)})
	defer svc.Close()
	block := make(chan struct{})
	defer close(block)
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
	waitRunning(t, svc, first)
	h := NewHandler(svc)
	for range 3 {
		pending, err := svc.Jobs().Submit(JobRequest{Instance: in})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("DELETE", "/v1/jobs/"+pending, nil))
		var st JobStatus
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &st) != nil || st.ID != pending || st.State != JobCanceled {
			t.Fatalf("DELETE /v1/jobs/%s: status %d, %s; want 200 and state canceled", pending, rec.Code, rec.Body)
		}
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
	if _, err := svc.Jobs().Cancel(id); err != nil {
		t.Fatal(err)
	}
	close(block) // solver finishes "successfully" after the cancel
	st := waitTerminal(t, svc, id)
	if st.State != JobCanceled {
		t.Fatalf("want canceled, got %s", st.State)
	}
}

// TestJobGaugesMatchTable is a model test of the running and pending job
// gauges: a random script of submits, cancels of pending and of running
// jobs, completions and TTL sweeps, over solvers that block until the
// script releases them. Every gauge move happens under the manager's lock,
// so after every step, and at every poll while a job settles, the gauges
// read under that lock equal a walk of the job table. Run under -race (CI
// does).
func TestJobGaugesMatchTable(t *testing.T) {
	const ttl = time.Hour // only the script's sweeps expire jobs
	svc := New(Config{CacheSize: 8, Workers: 2, MaxJobs: 2, ResultTTL: ttl, Slog: slog.New(slog.DiscardHandler)})
	defer svc.Close()
	m := svc.Jobs()
	check := func(step string) {
		t.Helper()
		m.mu.Lock()
		defer m.mu.Unlock()
		var running, pending int
		for _, j := range m.jobs.byID {
			switch j.state {
			case JobRunning:
				running++
			case JobPending:
				pending++
			}
		}
		if js := m.Stats(); js.Running != running || js.Pending != pending {
			t.Fatalf("%s: gauges read running %d, pending %d; the table holds %d and %d", step, js.Running, js.Pending, running, pending)
		}
	}
	in := core.MustHomogeneous(binset.Table1(), 10, 0.9)
	gates := map[string]chan struct{}{} // the solver gate of every job not yet settled
	// finish releases id's solver and polls until the job settles in want.
	finish := func(id string, want JobState) {
		t.Helper()
		close(gates[id])
		delete(gates, id)
		for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			check("settling " + id)
			st, err := m.Status(id)
			if err != nil {
				t.Fatal(err)
			}
			if st.State.Terminal() {
				if st.State != want {
					t.Fatalf("%s settled %s, want %s", id, st.State, want)
				}
				return
			}
		}
		t.Fatalf("%s did not settle", id)
	}
	rng := rand.New(rand.NewPCG(49, 1))
	ran := map[string]int{}
	for step := range 300 {
		// Wait for the jobs to fill both slots, checking at every poll, so
		// that the script draws from a settled split.
		var pending, running []string
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			check(fmt.Sprintf("step %d, waiting for slots", step))
			pending, running = pending[:0], running[:0]
			for id := range gates {
				st, err := m.Status(id)
				if err != nil {
					t.Fatal(err)
				}
				if st.State == JobPending {
					pending = append(pending, id)
				} else {
					running = append(running, id)
				}
			}
			if len(running) == min(2, len(gates)) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("step %d: %d of %d live jobs running", step, len(running), len(gates))
			}
		}
		sort.Strings(pending)
		sort.Strings(running)
		k := rng.IntN(6) % 5 // submits twice as likely, so jobs queue
		for k == 0 && len(gates) >= 6 || k == 1 && len(pending) == 0 || (k == 2 || k == 3) && len(running) == 0 {
			k = rng.IntN(6) % 5
		}
		var op string
		switch k {
		case 0:
			op = "submit"
			name, gate := fmt.Sprintf("gate-%d", step), make(chan struct{})
			if err := svc.RegisterSolver(name, core.SolverFunc{SolverName: name, Fn: func(*core.Instance) (*core.Plan, error) {
				<-gate
				return &core.Plan{}, nil
			}}); err != nil {
				t.Fatal(err)
			}
			id, err := m.Submit(JobRequest{Instance: in, Solver: name})
			if err != nil {
				t.Fatal(err)
			}
			gates[id] = gate
		case 1:
			op = "cancel pending"
			id := pending[rng.IntN(len(pending))]
			st, err := m.Cancel(id)
			if err != nil {
				t.Fatal(err)
			}
			if st.State == JobRunning { // it took a slot before the cancel
				finish(id, JobCanceled)
			} else {
				delete(gates, id)
			}
		case 2:
			op = "cancel running"
			id := running[rng.IntN(len(running))]
			if _, err := m.Cancel(id); err != nil {
				t.Fatal(err)
			}
			finish(id, JobCanceled)
		case 3:
			op = "complete"
			finish(running[rng.IntN(len(running))], JobDone)
		default:
			op = "expire"
			m.sweep(time.Now().Add(2 * ttl))
		}
		check(fmt.Sprintf("step %d (%s)", step, op))
		ran[op]++
	}
	t.Logf("steps by kind: %v", ran)
	if len(ran) != 5 {
		t.Fatalf("the script ran only %v", ran)
	}
	ids := make([]string, 0, len(gates))
	for id := range gates {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		if _, err := m.Cancel(id); err != nil {
			t.Fatal(err)
		}
		finish(id, JobCanceled)
	}
	check("drained")
	if js := m.Stats(); js.Running != 0 || js.Pending != 0 || js.Done+js.Failed+js.Canceled != js.Submitted {
		t.Fatalf("drained: %+v", js)
	}
}

// waitRunning polls until the job holds a run slot. Run goroutines race
// for the slots, so a test that needs a second job queued behind a first
// submits it only after this returns.
func waitRunning(t *testing.T, svc *Service, id string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st, err := svc.Jobs().Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == JobRunning {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never started running", id)
}

// jobPlan reads a done job's plan as the job-status route does, and fails
// the test unless the job is done.
func jobPlan(t *testing.T, m *JobManager, id string) *core.Plan {
	t.Helper()
	st, plan, _, err := m.snapshot(id)
	if err != nil || st.State != JobDone {
		t.Fatalf("job %s: state %q, err %v", id, st.State, err)
	}
	return plan
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
