package service

import (
	"context"
	"errors"
	"net/http"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/binset"
	"repro/internal/core"
	"repro/internal/crowdsim"
	"repro/internal/executor"
)

// runJellyRequest builds a reproducible run job on the Jelly menu.
func runJellyRequest(t *testing.T, n int, threshold float64, seed int64) JobRequest {
	t.Helper()
	in, err := core.NewHomogeneous(binset.MustJelly(20), n, threshold)
	if err != nil {
		t.Fatal(err)
	}
	return JobRequest{Run: &RunJob{
		Instance: in,
		Platform: PlatformSpec{Model: "jelly", Seed: seed},
		Options:  executor.Options{TopUp: true},
	}}
}

// TestRunJobEndToEnd is the tentpole acceptance path: a run job plans the
// instance, executes the plan on the seeded platform, and settles Done
// with a report whose delivered coverage meets the target after top-ups.
func TestRunJobEndToEnd(t *testing.T) {
	svc := New(Config{CacheSize: 8, Workers: 2, Logger: quietLogger()})
	defer svc.Close()
	const n, threshold = 300, 0.9
	req := runJellyRequest(t, n, threshold, 7)
	id, err := svc.Jobs().Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, svc, id)
	if st.State != JobDone {
		t.Fatalf("run job settled %s: %s", st.State, st.Error)
	}
	if st.Kind != KindRun {
		t.Fatalf("kind %q, want %q", st.Kind, KindRun)
	}
	if st.Summary == nil || st.Summary.Cost <= 0 {
		t.Fatalf("run job missing plan summary: %+v", st)
	}
	rep := st.Report
	if rep == nil {
		t.Fatal("done run job has no execution report")
	}
	if rep.Platform != "jelly" || rep.Seed != 7 || rep.Tasks != n {
		t.Fatalf("report header: %+v", rep)
	}
	if rep.TargetReliability != threshold {
		t.Fatalf("target reliability %v, want %v", rep.TargetReliability, threshold)
	}
	if rep.PlannedCost != st.Summary.Cost {
		t.Fatalf("planned cost %v != plan summary cost %v", rep.PlannedCost, st.Summary.Cost)
	}
	if rep.Spent < rep.PlannedCost-1e-9 {
		t.Fatalf("spent %v below planned %v", rep.Spent, rep.PlannedCost)
	}
	if rep.BinsIssued <= 0 {
		t.Fatalf("no bins issued: %+v", rep)
	}
	// The Jelly menu keeps every bin within the deadline in expectation,
	// so with retries and top-ups the delivered mass covers every task.
	if rep.AbandonedBins == 0 && (rep.CoveredTasks != n || rep.UncoveredCount != 0) {
		t.Fatalf("coverage after top-ups: covered=%d uncovered=%d of %d", rep.CoveredTasks, rep.UncoveredCount, n)
	}
	if rep.EmpiricalReliability < threshold-0.05 {
		t.Fatalf("empirical reliability %v far below target %v", rep.EmpiricalReliability, threshold)
	}
	if rep.MinDeliveredReliability < threshold-1e-9 && rep.AbandonedBins == 0 {
		t.Fatalf("min delivered reliability %v below target %v", rep.MinDeliveredReliability, threshold)
	}

	// The plan that was executed is served like any other job result.
	plan := jobPlan(t, svc.Jobs(), id)
	if err := plan.Validate(req.Run.Instance); err != nil {
		t.Fatalf("executed plan invalid: %v", err)
	}

	js := svc.Jobs().Stats()
	if js.Runs != 1 || js.RunBinsIssued != uint64(rep.BinsIssued) || js.RunSpend != rep.Spent {
		t.Fatalf("run counters: %+v vs report %+v", js, rep)
	}
}

// TestRunJobDeterministicReplay: identical requests (same seed) produce
// byte-identical reports — the reproducibility the seeded platform and
// derived truth stream promise.
func TestRunJobDeterministicReplay(t *testing.T) {
	svc := New(Config{CacheSize: 8, Workers: 2, Logger: quietLogger()})
	defer svc.Close()
	var reports [2]*ExecutionReport
	for i := range reports {
		id, err := svc.Jobs().Submit(runJellyRequest(t, 150, 0.9, 42))
		if err != nil {
			t.Fatal(err)
		}
		st := waitTerminal(t, svc, id)
		if st.State != JobDone {
			t.Fatalf("replay %d settled %s: %s", i, st.State, st.Error)
		}
		reports[i] = st.Report
	}
	if !reflect.DeepEqual(reports[0], reports[1]) {
		t.Fatalf("same seed, different reports:\n%+v\n%+v", reports[0], reports[1])
	}
}

// TestRunJobExplicitTruth: an all-negative truth vector — explicit, or
// requested via a negative positive rate — yields trivial reliability 1
// with zero positives; truth is honored, not regenerated.
func TestRunJobExplicitTruth(t *testing.T) {
	svc := New(Config{CacheSize: 8, Workers: 2, Logger: quietLogger()})
	defer svc.Close()
	for name, mutate := range map[string]func(*RunJob){
		"explicit truth": func(rj *RunJob) { rj.Truth = make([]bool, 60) },
		"negative rate":  func(rj *RunJob) { rj.PositiveRate = -1 },
	} {
		req := runJellyRequest(t, 60, 0.9, 3)
		mutate(req.Run)
		id, err := svc.Jobs().Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		st := waitTerminal(t, svc, id)
		if st.State != JobDone {
			t.Fatalf("%s: settled %s: %s", name, st.State, st.Error)
		}
		if st.Report.Positives != 0 || st.Report.Detected != 0 || st.Report.EmpiricalReliability != 1 {
			t.Fatalf("%s: %+v", name, st.Report)
		}
	}
}

// TestRunJobPooledPlatform routes execution through a persistent worker
// population and still reaches a terminal report.
func TestRunJobPooledPlatform(t *testing.T) {
	svc := New(Config{CacheSize: 8, Workers: 2, Logger: quietLogger()})
	defer svc.Close()
	req := runJellyRequest(t, 100, 0.9, 11)
	req.Run.Platform.PoolSize = 40
	req.Run.Platform.SpammerFraction = 0.1
	id, err := svc.Jobs().Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, svc, id)
	if st.State != JobDone || st.Report == nil {
		t.Fatalf("pooled run: %+v", st)
	}
	if st.Report.BinsIssued <= 0 || st.Report.Spent <= 0 {
		t.Fatalf("pooled report: %+v", st.Report)
	}
}

// TestRunJobValidation covers the synchronous rejections.
func TestRunJobValidation(t *testing.T) {
	svc := New(Config{CacheSize: 8, Workers: 2, Logger: quietLogger()})
	defer svc.Close()
	in := core.MustHomogeneous(binset.Table1(), 10, 0.9)

	bad := []JobRequest{
		{Run: &RunJob{}}, // no instance
		{Run: &RunJob{Instance: in, Truth: []bool{true}}},                // truth length
		{Run: &RunJob{Instance: in, PositiveRate: 1.5}},                  // rate range
		{Run: &RunJob{Instance: in, Platform: PlatformSpec{Model: "x"}}}, // unknown model
		{Run: &RunJob{Instance: in}, Instance: in},                       // two payloads
		{Run: &RunJob{Instance: in}, Solver: "nope"},                     // unknown planner
		{Run: &RunJob{Instance: in, // a pool big enough to OOM the daemon
			Platform: PlatformSpec{PoolSize: MaxPoolSize + 1}}},
	}
	for i, req := range bad {
		if _, err := svc.Jobs().Submit(req); err == nil {
			t.Errorf("bad request %d accepted", i)
		}
	}
}

// blockingRunner parks the first issue until released, so a test can
// deterministically cancel a run mid-flight.
type blockingRunner struct {
	started chan struct{}
	release chan struct{}
	calls   atomic.Int64
}

func (r *blockingRunner) RunBinContext(_ context.Context, _ executor.BinContext, cardinality int, pay float64, difficulty int, truth []bool) (crowdsim.BinOutcome, error) {
	if r.calls.Add(1) == 1 {
		close(r.started)
		<-r.release
	}
	return crowdsim.BinOutcome{
		Answers:  make([]bool, len(truth)),
		Correct:  make([]bool, len(truth)),
		Duration: time.Second,
	}, nil
}

// TestRunJobCancelMidFlight is the DELETE contract: canceling a running
// run job aborts the execution at the next bin boundary — the job settles
// Canceled and the platform stops being paid.
func TestRunJobCancelMidFlight(t *testing.T) {
	r := &blockingRunner{started: make(chan struct{}), release: make(chan struct{})}
	svc := New(Config{
		CacheSize: 8, Workers: 2, Logger: quietLogger(),
		PlatformFactory: func(PlatformSpec) (executor.BinRunner, error) { return r, nil },
	})
	defer svc.Close()

	// Cardinality-1 menu → one bin use per task, plenty of bins after the
	// cancel point for an un-canceled run to keep issuing.
	in := core.MustHomogeneous(core.MustBinSet([]core.TaskBin{
		{Cardinality: 1, Confidence: 0.9, Cost: 0.1},
	}), 500, 0.8)
	id, err := svc.Jobs().Submit(JobRequest{Run: &RunJob{Instance: in}})
	if err != nil {
		t.Fatal(err)
	}

	<-r.started // execution reached the platform
	if _, err := svc.Jobs().Cancel(id); err != nil {
		t.Fatal(err)
	}
	close(r.release) // the in-flight bin returns; the next issue must not happen

	st := waitTerminal(t, svc, id)
	if st.State != JobCanceled {
		t.Fatalf("want canceled, got %s (%s)", st.State, st.Error)
	}
	if got := r.calls.Load(); got >= 500 {
		t.Fatalf("execution ran to completion after DELETE: %d bins issued", got)
	}
	if st.Report != nil {
		t.Fatal("canceled run must not publish a report")
	}
}

// TestRunJobPersistAndReplay: a run job's report survives a service
// restart and is served without re-executing a single bin.
func TestRunJobPersistAndReplay(t *testing.T) {
	dir := t.TempDir()
	var factoryCalls atomic.Int64
	countingFactory := func(spec PlatformSpec) (executor.BinRunner, error) {
		factoryCalls.Add(1)
		return defaultPlatformFactory(spec)
	}

	svc := New(Config{CacheSize: 8, Workers: 2, Store: openFS(t, dir),
		Logger: quietLogger(), PlatformFactory: countingFactory})
	id, err := svc.Jobs().Submit(runJellyRequest(t, 120, 0.9, 5))
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, svc, id)
	if st.State != JobDone || st.Report == nil {
		t.Fatalf("first life: %+v", st)
	}
	firstReport := st.Report
	svc.Close()

	svc2 := New(Config{CacheSize: 8, Workers: 2, Store: openFS(t, dir),
		Logger: quietLogger(), PlatformFactory: countingFactory})
	defer svc2.Close()
	st2, err := svc2.Jobs().Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if st2.State != JobDone || st2.Kind != KindRun {
		t.Fatalf("recovered run job: %+v", st2)
	}
	if !reflect.DeepEqual(st2.Report, firstReport) {
		t.Fatalf("recovered report differs:\n%+v\n%+v", st2.Report, firstReport)
	}
	jobPlan(t, svc2.Jobs(), id)
	js := svc2.Jobs().Stats()
	if js.Recovered != 1 {
		t.Fatalf("recovered counter: %d", js.Recovered)
	}
	// Zero re-executions: the second process never built a platform nor
	// ran a bin.
	if js.Runs != 0 || js.RunBinsIssued != 0 {
		t.Fatalf("warm boot re-executed: %+v", js)
	}
	if got := factoryCalls.Load(); got != 1 {
		t.Fatalf("platform factory called %d times, want 1 (submit only)", got)
	}
}

// TestRunJobFactoryErrorsSurfaceAtSubmit: a factory rejection is a
// synchronous submit error, not a failed job.
func TestRunJobFactoryErrorsSurfaceAtSubmit(t *testing.T) {
	boom := errors.New("platform down")
	svc := New(Config{CacheSize: 8, Workers: 2, Logger: quietLogger(),
		PlatformFactory: func(PlatformSpec) (executor.BinRunner, error) { return nil, boom }})
	defer svc.Close()
	in := core.MustHomogeneous(binset.Table1(), 10, 0.9)
	if _, err := svc.Jobs().Submit(JobRequest{Run: &RunJob{Instance: in}}); !errors.Is(err, boom) {
		t.Fatalf("want factory error at submit, got %v", err)
	}
	if n := svc.Jobs().Stats().Submitted; n != 0 {
		t.Fatalf("rejected submission counted: %d", n)
	}
}

// TestRunJobHugeBinSettlesDone: a run job whose menu holds one bin of
// cardinality 2⁴⁰, over ten tasks, settles done. The executor used to
// size its truth buffer by the menu's largest bin, and the process died
// of an out-of-memory fault.
func TestRunJobHugeBinSettlesDone(t *testing.T) {
	_, ts := newTestServer(t)
	body := `{"kind":"run","bins":[{"cardinality":1099511627776,"confidence":0.9,"cost":0.5}],` +
		`"n":10,"threshold":0.8,"run":{"seed":7,"positive_rate":0.5}}`
	resp, raw := postJSON(t, ts.URL+"/v1/jobs", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d (%s)", resp.StatusCode, raw)
	}
	var st JobStatus
	if err := decodeJobID(raw, &st); err != nil {
		t.Fatal(err)
	}
	if st = waitTerminalHTTP(t, ts.URL, st.ID); st.State != JobDone || st.Report == nil || st.Report.BinsIssued == 0 {
		t.Fatalf("run job settled %s (%s), report %+v", st.State, st.Error, st.Report)
	}
}
