package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/executor"
	"repro/internal/platform/testplatform"
	"repro/internal/store"
)

// startMarketplace brings up the mock remote marketplace for the test.
func startMarketplace(t *testing.T, opts testplatform.Options) *testplatform.Server {
	t.Helper()
	tp, err := testplatform.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tp.Close)
	return tp
}

// TestRemoteRunEndToEnd submits a run job with the "remote" platform kind
// against a daemon-wide marketplace client and reconciles the report's
// spend with the marketplace ledger — exact parity, no faults.
func TestRemoteRunEndToEnd(t *testing.T) {
	tp := startMarketplace(t, testplatform.Options{Seed: 7})
	svc := New(Config{CacheSize: 8, Workers: 2, Logger: quietLogger(), PlatformURL: tp.URL()})
	defer svc.Close()

	req := runJellyRequest(t, 150, 0.9, 7)
	req.Run.Platform.Kind = "remote"
	id, err := svc.Jobs().Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, svc, id)
	if st.State != JobDone {
		t.Fatalf("remote run settled %s: %s", st.State, st.Error)
	}
	rep := st.Report
	if rep == nil || rep.Platform != "remote" {
		t.Fatalf("report: %+v", rep)
	}
	if rep.Degraded || rep.LastError != "" {
		t.Fatalf("healthy platform produced a degraded report: %+v", rep)
	}
	if rep.BinsIssued <= 0 || rep.Spent <= 0 {
		t.Fatalf("empty remote execution: %+v", rep)
	}
	if got := tp.Charged(); got != rep.Spent {
		t.Fatalf("spend parity: report %v, marketplace charged %v", rep.Spent, got)
	}
	if tp.Commits() != uint64(rep.BinsIssued) {
		t.Fatalf("commit parity: report %d bins, marketplace %d commits", rep.BinsIssued, tp.Commits())
	}

	stats := svc.Stats()
	if stats.Platform == nil || stats.Platform.State != "ok" {
		t.Fatalf("stats platform block: %+v", stats.Platform)
	}
	if stats.Platform.Attempts == 0 {
		t.Fatalf("platform attempts not counted: %+v", stats.Platform)
	}
	h := svc.Health()
	if h.Platform == nil || h.Platform.Degraded || h.Platform.URL != tp.URL() {
		t.Fatalf("health platform block: %+v", h.Platform)
	}
}

// TestRemoteRunDegradesWhenPlatformDies is the graceful-degradation
// acceptance: the marketplace dies mid-run, the job still settles Done
// with a partial report (degraded + last error), every committed bin is
// paid exactly once, and /v1/healthz keeps serving 200 with the platform
// marked degraded — never a 503.
func TestRemoteRunDegradesWhenPlatformDies(t *testing.T) {
	tp := startMarketplace(t, testplatform.Options{Seed: 5})
	svc := New(Config{CacheSize: 8, Workers: 2, Logger: quietLogger(),
		PlatformURL: tp.URL(), PlatformRetries: 2})
	defer svc.Close()
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()

	tp.KillAfter(4)
	req := runJellyRequest(t, 200, 0.9, 5)
	req.Run.Platform.Kind = "remote"
	id, err := svc.Jobs().Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, svc, id)
	if st.State != JobDone {
		t.Fatalf("degraded run settled %s: %s", st.State, st.Error)
	}
	rep := st.Report
	if rep == nil || !rep.Degraded || rep.LastError == "" {
		t.Fatalf("want degraded partial report, got %+v", rep)
	}
	if rep.BinsIssued != 4 {
		t.Fatalf("bins issued before death: %d, want 4", rep.BinsIssued)
	}
	if rep.TopUpRounds != 0 {
		t.Fatalf("degraded run must not top up: %+v", rep)
	}
	if got := tp.Charged(); got != rep.Spent {
		t.Fatalf("degraded spend parity: report %v, marketplace %v", rep.Spent, got)
	}

	stats := svc.Stats()
	if stats.Platform == nil || stats.Platform.DegradedRuns != 1 {
		t.Fatalf("degraded runs counter: %+v", stats.Platform)
	}
	if stats.Platform.State != "open" {
		t.Fatalf("breaker state after death: %q", stats.Platform.State)
	}

	// The readiness probe stays 200: a dead marketplace degrades the
	// platform block, it does not take the daemon out of rotation.
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d with platform down, want 200", resp.StatusCode)
	}
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Platform == nil || !h.Platform.Degraded || h.Platform.Error == "" {
		t.Fatalf("healthz platform block: %+v", h.Platform)
	}
}

// TestRemoteKindUnconfiguredRejects: asking for the remote platform on a
// daemon without one is a synchronous submit error, not a failed job.
func TestRemoteKindUnconfiguredRejects(t *testing.T) {
	svc := New(Config{CacheSize: 8, Workers: 2, Logger: quietLogger()})
	defer svc.Close()
	req := runJellyRequest(t, 20, 0.9, 1)
	req.Run.Platform.Kind = "remote"
	_, err := svc.Jobs().Submit(req)
	if err == nil || !strings.Contains(err.Error(), "-platform-url") {
		t.Fatalf("want unconfigured-platform error, got %v", err)
	}
}

// TestRunBudgetValidation pins the negative-budget rejections: -1 means
// "explicitly none" but anything more negative is a typo'd request that
// must 400 with the error envelope, not execute with a surprise budget.
// It also pins the removed per-job marketplace override: every remote run
// goes through the daemon's one client, so a body still naming its own
// marketplace or wire knobs is the strict decoder's unknown-field 400, and
// the host it names hears nothing.
func TestRunBudgetValidation(t *testing.T) {
	tp := startMarketplace(t, testplatform.Options{Seed: 1})
	svc := New(Config{CacheSize: 8, Workers: 2, Logger: quietLogger(), PlatformURL: tp.URL()})
	defer svc.Close()
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()
	var elsewhere atomic.Int64
	other := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		elsewhere.Add(1)
	}))
	defer other.Close()

	for name, runBody := range map[string]string{
		"max_retries":         `{"max_retries":-2}`,
		"max_top_ups":         `{"max_top_ups":-3}`,
		"platform_kind":       `{"platform_kind":"cloud"}`,
		"platform_url":        `{"platform_kind":"remote","platform_url":"` + other.URL + `"}`,
		"platform_auth":       `{"platform_kind":"remote","platform_auth":"Bearer x"}`,
		"platform_timeout_ms": `{"platform_kind":"remote","platform_timeout_ms":5000}`,
		"platform_retries":    `{"platform_kind":"remote","platform_retries":-1}`,
		"platform_rps":        `{"platform_kind":"remote","platform_rps":50}`,
	} {
		body := fmt.Sprintf(`{"kind":"run","bins":%s,"n":10,"threshold":0.9,"run":%s}`, table1JSON, runBody)
		resp, raw := postJSON(t, ts.URL+"/v1/jobs", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", name, resp.StatusCode, raw)
			continue
		}
		var envelope struct {
			Error struct {
				Code    string `json:"code"`
				Message string `json:"message"`
			} `json:"error"`
		}
		if err := json.Unmarshal(raw, &envelope); err != nil ||
			envelope.Error.Code != "invalid_request" || envelope.Error.Message == "" {
			t.Errorf("%s: not an error envelope: %s", name, raw)
		}
		if strings.HasPrefix(name, "platform_") && name != "platform_kind" &&
			!strings.Contains(envelope.Error.Message, `unknown field "`+name+`"`) {
			t.Errorf("%s: rejected for another reason: %s", name, raw)
		}
	}
	// No rejected body became a job, so none can issue later either.
	if n := svc.Jobs().Stats().Submitted; n != 0 {
		t.Errorf("rejected bodies submitted %d jobs", n)
	}
	if n := elsewhere.Load(); n != 0 {
		t.Errorf("the host a rejected platform_url named received %d requests", n)
	}
	if n := tp.Commits(); n != 0 {
		t.Errorf("the daemon's marketplace committed %d bins for rejected bodies", n)
	}
	// -1 stays legal: explicitly no retries, no top-ups.
	ok := fmt.Sprintf(`{"kind":"run","bins":%s,"n":10,"threshold":0.9,"run":{"max_retries":-1,"max_top_ups":-1}}`, table1JSON)
	if resp, raw := postJSON(t, ts.URL+"/v1/jobs", ok); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("-1 budgets rejected: %d (%s)", resp.StatusCode, raw)
	}
}

// TestInterruptedRunReplay is the restart satellite: a run job whose
// record is still non-terminal at boot — the process died mid-run —
// replays as failed with an explicit interruption error, counts in
// runs_interrupted, and converges the store so the next boot sees an
// ordinary failed job.
func TestInterruptedRunReplay(t *testing.T) {
	dir := t.TempDir()
	st := openFS(t, dir)
	now := time.Now().Truncate(time.Second)
	if err := st.PutJob(store.JobRecord{
		ID: "job-3", Kind: KindRun, State: string(JobRunning), Solver: "opq",
		Submitted: now.Add(-2 * time.Minute), Started: now.Add(-time.Minute),
	}); err != nil {
		t.Fatal(err)
	}

	svc := New(Config{CacheSize: 8, Workers: 2, Store: st, Logger: quietLogger()})
	status, err := svc.Jobs().Status("job-3")
	if err != nil {
		t.Fatal(err)
	}
	if status.State != JobFailed {
		t.Fatalf("interrupted job state %s, want %s", status.State, JobFailed)
	}
	if !strings.Contains(status.Error, "interrupted by restart") {
		t.Fatalf("interrupted job error %q", status.Error)
	}
	if status.Finished.IsZero() {
		t.Fatal("interrupted job has no finish time")
	}
	js := svc.Jobs().Stats()
	if js.RunsInterrupted != 1 || js.Recovered != 1 {
		t.Fatalf("interrupted counters: %+v", js)
	}
	// Fresh ids stay strictly after the replayed one.
	id, err := svc.Jobs().Submit(runJellyRequest(t, 20, 0.9, 1))
	if err != nil {
		t.Fatal(err)
	}
	if id != "job-4" {
		t.Fatalf("fresh id %s collides with replayed job-3", id)
	}
	waitTerminal(t, svc, id)
	svc.Close()

	// The store converged on the terminal form: a second boot replays an
	// ordinary failed job and counts nothing as interrupted.
	rec, err := openFS(t, dir).GetJob("job-3")
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != string(JobFailed) || !strings.Contains(rec.Error, "interrupted by restart") {
		t.Fatalf("store record after replay: %+v", rec)
	}
	svc2 := New(Config{CacheSize: 8, Workers: 2, Store: openFS(t, dir), Logger: quietLogger()})
	defer svc2.Close()
	js2 := svc2.Jobs().Stats()
	if js2.RunsInterrupted != 0 {
		t.Fatalf("second boot re-counted interruption: %+v", js2)
	}
	if status2, err := svc2.Jobs().Status("job-3"); err != nil || status2.State != JobFailed {
		t.Fatalf("second boot replay: %+v %v", status2, err)
	}
}

// TestRunningMarkerWritten: a run job leaves a non-terminal marker in the
// store while it executes — the hook the interrupted-replay path depends
// on — and the terminal record overwrites it at settle.
func TestRunningMarkerWritten(t *testing.T) {
	r := &blockingRunner{started: make(chan struct{}), release: make(chan struct{})}
	dir := t.TempDir()
	st := openFS(t, dir)
	svc := New(Config{CacheSize: 8, Workers: 2, Store: st, Logger: quietLogger(),
		PlatformFactory: func(PlatformSpec) (executor.BinRunner, error) { return r, nil }})
	defer svc.Close()

	id, err := svc.Jobs().Submit(runJellyRequest(t, 30, 0.9, 1))
	if err != nil {
		t.Fatal(err)
	}
	<-r.started // the job is mid-run; the marker must already be durable
	rec, err := st.GetJob(id)
	if err != nil {
		t.Fatalf("no running marker in the store: %v", err)
	}
	if rec.State != string(JobRunning) || rec.Kind != KindRun {
		t.Fatalf("marker record: %+v", rec)
	}
	if svc.Jobs().Stats().Persisted != 0 {
		t.Fatal("marker counted as a terminal persist")
	}
	close(r.release)
	waitTerminal(t, svc, id)
	svc.Jobs().persistWG.Wait()
	rec, err = st.GetJob(id)
	if err != nil {
		t.Fatal(err)
	}
	if !JobState(rec.State).Terminal() {
		t.Fatalf("marker not overwritten at settle: %+v", rec)
	}
}
