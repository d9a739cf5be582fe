package platform

import (
	"context"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/binset"
	"repro/internal/core"
	"repro/internal/executor"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/opq"
	"repro/internal/platform/testplatform"
)

// chaosEnv builds the shared instance/plan/truth for platform tests.
func chaosEnv(t *testing.T, n int) (*core.Instance, *core.Plan, []bool) {
	t.Helper()
	menu := binset.MustJelly(20)
	in, err := core.NewHomogeneous(menu, n, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := (opq.Solver{}).Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	truth := make([]bool, n)
	for i := range truth {
		truth[i] = i%3 == 0
	}
	return in, plan, truth
}

// hardenedClient builds a client tuned for chaos runs: a breaker that
// effectively never opens, a deep retry budget, and millisecond backoff.
func hardenedClient(t *testing.T, url string, mutate func(*Config)) *Client {
	t.Helper()
	cfg := Config{
		BaseURL:          url,
		Timeout:          5 * time.Second,
		RetryBudget:      100000,
		FailureThreshold: 1000,
		BackoffBase:      time.Millisecond,
		BackoffCap:       4 * time.Millisecond,
		JitterSeed:       42,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	c, err := NewClient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// faulted returns a client transport that applies the given seeded fault
// profile to traffic bound for the marketplace at url.
func faulted(url string, seed int64, f faultinject.Faults) *faultinject.Injector {
	inj := faultinject.New(seed, nil)
	inj.Set(url, f)
	return inj
}

// spendParity runs one plan twice against seeded marketplaces — once
// clean, once through the given fault profile — and checks the money
// invariant: the chaos run's report is byte-identical to the fault-free
// one, and the marketplace charged exactly what the report says was
// spent, which is exactly what the clean run spent. Zero double-paid
// bins. It returns the faulted marketplace for schedule assertions.
func spendParity(t *testing.T, seed int64, n int, faults faultinject.Faults) *testplatform.Server {
	t.Helper()
	in, plan, truth := chaosEnv(t, n)
	opts := executor.Options{RunID: "chaos-1", TopUp: true}

	clean, err := testplatform.New(testplatform.Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(clean.Close)
	cleanRep, err := executor.ExecuteContext(context.Background(),
		hardenedClient(t, clean.URL(), nil).Runner(), in, plan, truth, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cleanRep.Degraded {
		t.Fatalf("seed %d: fault-free run degraded: %q", seed, cleanRep.LastError)
	}

	faulty, err := testplatform.New(testplatform.Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(faulty.Close)
	chaos := func(cfg *Config) { cfg.Transport = faulted(faulty.URL(), seed+1, faults) }
	faultyRep, err := executor.ExecuteContext(context.Background(),
		hardenedClient(t, faulty.URL(), chaos).Runner(), in, plan, truth, opts)
	if err != nil {
		t.Fatal(err)
	}
	if faultyRep.Degraded {
		t.Fatalf("seed %d: chaos run degraded: %q", seed, faultyRep.LastError)
	}

	// Byte-identical reports: the fault schedule must be invisible in
	// the execution's accounting.
	if !reflect.DeepEqual(cleanRep, faultyRep) {
		t.Fatalf("seed %d %+v: chaos report diverged from fault-free run:\nclean:  %+v\nfaulty: %+v", seed, faults, cleanRep, faultyRep)
	}
	// Exact spend parity, reconciled against the marketplace ledger on
	// both sides: every bin paid exactly once.
	if got, want := faulty.Charged(), faultyRep.Spent; !floatEq(got, want) {
		t.Fatalf("seed %d %+v: marketplace charged %v, report spent %v — double-paid bins", seed, faults, got, want)
	}
	if got, want := faulty.Charged(), clean.Charged(); !floatEq(got, want) {
		t.Fatalf("seed %d %+v: chaos charges %v != fault-free charges %v", seed, faults, got, want)
	}
	if got, want := faulty.Commits(), clean.Commits(); got != want {
		t.Fatalf("seed %d %+v: chaos commits %d != fault-free commits %d", seed, faults, got, want)
	}
	return faulty
}

// TestPlatformChaosSpendParity is the chaos acceptance test: with 25% of
// traffic faulted (pre-commit drops and 500s, truncated bodies, dropped
// post-commit responses), a run job must complete with its accounting
// untouched (see spendParity) — and the schedule must actually have
// bitten.
func TestPlatformChaosSpendParity(t *testing.T) {
	faulty := spendParity(t, 7, 1200, faultinject.Faults{
		DropProb:      0.05,
		FailProb:      0.08,
		TruncateProb:  0.06,
		DropAfterProb: 0.06,
	})
	if faulty.Requests() <= faulty.Commits() {
		t.Fatalf("no faulted requests (requests=%d commits=%d) — schedule too tame to prove anything", faulty.Requests(), faulty.Commits())
	}
	if faulty.Replays() == 0 {
		t.Fatal("no idempotent replays — the double-spend path was never exercised")
	}
}

// TestPlatformSpendParityProperty is the money invariant as a property:
// spendParity over 24 seeds, each drawing its own mix of pre-commit 500s,
// truncated bodies and dropped post-commit responses (the ambiguous
// failure only an idempotent replay resolves), from none of a class to
// one request in six. Whatever the mix, Charged() == Report.Spent ==
// the clean run's spend.
func TestPlatformSpendParityProperty(t *testing.T) {
	var requests, commits, replays uint64
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// A class is absent from about a quarter of the mixes, so the
		// others are also seen alone.
		draw := func() float64 { return max(0, rng.Float64()*0.22-0.05) }
		faulty := spendParity(t, seed, 240, faultinject.Faults{
			FailProb:      draw(),
			TruncateProb:  draw(),
			DropAfterProb: draw(),
		})
		requests += faulty.Requests()
		commits += faulty.Commits()
		replays += faulty.Replays()
	}
	if requests <= commits || replays == 0 {
		t.Fatalf("schedules too tame to prove anything: %d requests, %d commits, %d replays", requests, commits, replays)
	}
}

func floatEq(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}

// TestPlatformDownMidRunDegrades kills the marketplace mid-plan and
// checks the run finishes with a partial, explicitly degraded report
// instead of an error.
func TestPlatformDownMidRunDegrades(t *testing.T) {
	in, plan, truth := chaosEnv(t, 600)
	srv, err := testplatform.New(testplatform.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.KillAfter(5)

	c := hardenedClient(t, srv.URL(), func(cfg *Config) {
		cfg.RetryBudget = 4
		cfg.FailureThreshold = 3
	})
	rep, err := executor.ExecuteContext(context.Background(), c.Runner(), in, plan, truth, executor.Options{RunID: "dying"})
	if err != nil {
		t.Fatalf("degraded run returned error: %v", err)
	}
	if !rep.Degraded {
		t.Fatal("report not degraded with the platform down")
	}
	if rep.LastError == "" {
		t.Fatal("degraded report carries no last error")
	}
	if rep.BinsIssued != 5 || !floatEq(rep.Spent, srv.Charged()) {
		t.Fatalf("partial accounting: issued=%d spent=%v charged=%v", rep.BinsIssued, rep.Spent, srv.Charged())
	}
	if rep.DeliveredMassTotal() <= 0 {
		t.Fatal("delivered mass lost in degradation")
	}
	c.NoteDegradedRun()
	st := c.Stats()
	if st.DegradedRuns != 1 {
		t.Fatalf("DegradedRuns = %d", st.DegradedRuns)
	}
	if st.State != "open" || st.BreakerOpens == 0 {
		t.Fatalf("breaker after platform death: state=%q opens=%d", st.State, st.BreakerOpens)
	}
	if !c.Degraded() {
		t.Fatal("client not degraded with the breaker open")
	}
}

// TestPlatformDownFromStartDegradesEmpty: a platform that never answers
// produces a zero-spend degraded report, not an error.
func TestPlatformDownFromStartDegradesEmpty(t *testing.T) {
	in, plan, truth := chaosEnv(t, 100)
	srv, err := testplatform.New(testplatform.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Kill()

	c := hardenedClient(t, srv.URL(), func(cfg *Config) {
		cfg.RetryBudget = 2
		cfg.FailureThreshold = 2
	})
	rep, err := executor.ExecuteContext(context.Background(), c.Runner(), in, plan, truth, executor.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Degraded || rep.BinsIssued != 0 || rep.Spent != 0 {
		t.Fatalf("down-from-start report: degraded=%v issued=%d spent=%v", rep.Degraded, rep.BinsIssued, rep.Spent)
	}
	// Revival heals: the breaker cooldown is the only gate.
	srv.Revive()
}

func TestIdempotencyKeyDeterministic(t *testing.T) {
	if IdempotencyKey("job-1", 4, 2) != "job-1:4:2" {
		t.Fatalf("key = %q", IdempotencyKey("job-1", 4, 2))
	}
	if IdempotencyKey("job-1", 4, 2) != IdempotencyKey("job-1", 4, 2) {
		t.Fatal("key not deterministic")
	}
	if IdempotencyKey("job-1", 4, 2) == IdempotencyKey("job-1", 4, 3) {
		t.Fatal("attempt epochs share a key — overtime retries would not be paid")
	}
}

func TestPlatformAuth(t *testing.T) {
	in, plan, truth := chaosEnv(t, 60)
	srv, err := testplatform.New(testplatform.Options{Seed: 5, Auth: "Bearer sesame"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	good := hardenedClient(t, srv.URL(), func(cfg *Config) { cfg.Auth = "Bearer sesame" })
	rep, err := executor.ExecuteContext(context.Background(), good.Runner(), in, plan, truth, executor.Options{RunID: "authed"})
	if err != nil || rep.Degraded {
		t.Fatalf("authorized run failed: err=%v degraded=%v", err, rep.Degraded)
	}

	// A 401 is a permanent rejection: no retries, immediate degradation.
	bad := hardenedClient(t, srv.URL(), func(cfg *Config) { cfg.Auth = "Bearer wrong" })
	rep, err = executor.ExecuteContext(context.Background(), bad.Runner(), in, plan, truth, executor.Options{RunID: "unauthed"})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Degraded || !strings.Contains(rep.LastError, "401") {
		t.Fatalf("unauthorized run: degraded=%v lastErr=%q", rep.Degraded, rep.LastError)
	}
	if got := bad.Stats().Retries; got != 0 {
		t.Fatalf("permanent rejection consumed %d retries", got)
	}
}

func TestPlatformRetryBudgetExhaustion(t *testing.T) {
	srv, err := testplatform.New(testplatform.Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := hardenedClient(t, srv.URL(), func(cfg *Config) {
		cfg.Transport = faulted(srv.URL(), 6, faultinject.Faults{FailProb: 1})
		cfg.RetryBudget = 3
	})
	r := c.Runner()
	_, rerr := r.RunBinContext(context.Background(), executor.BinContext{RunID: "budget", Bin: 0, Attempt: 0}, 2, 0.1, 2, []bool{true, false})
	if rerr == nil || !strings.Contains(rerr.Error(), "retry budget exhausted") {
		t.Fatalf("err = %v, want retry budget exhausted", rerr)
	}
	if got := c.Stats().Retries; got != 3 {
		t.Fatalf("retries = %d, want 3", got)
	}
	if srv.Charged() != 0 {
		t.Fatalf("pre-commit failures charged %v", srv.Charged())
	}
}

func TestPlatformMetricsRegistered(t *testing.T) {
	in, plan, truth := chaosEnv(t, 60)
	reg := obs.NewRegistry()
	srv, err := testplatform.New(testplatform.Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := hardenedClient(t, srv.URL(), func(cfg *Config) {
		cfg.Transport = faulted(srv.URL(), 6, faultinject.Faults{DropAfterProb: 0.2})
		cfg.Registry = reg
		cfg.RPS = 50000 // exercise the throttle path without slowing the test
		cfg.Burst = 1
	})
	if _, err := executor.ExecuteContext(context.Background(), c.Runner(), in, plan, truth, executor.Options{RunID: "metrics"}); err != nil {
		t.Fatal(err)
	}
	expose := string(reg.Expose())
	for _, name := range []string{
		"slade_platform_attempts_total",
		"slade_platform_retries_total",
		"slade_platform_failures_total",
		"slade_platform_replays_total",
		"slade_platform_breaker_opens_total",
		"slade_platform_degraded_runs_total",
		"slade_platform_inflight",
		"slade_platform_breaker_state",
		"slade_platform_issue_latency_seconds",
		"slade_platform_throttle_wait_seconds",
	} {
		if !strings.Contains(expose, name) {
			t.Errorf("/metrics missing %s", name)
		}
	}
	st := c.Stats()
	if st.Attempts == 0 || st.Latency.Count == 0 {
		t.Fatalf("stats not populated: %+v", st)
	}
	if st.URL != srv.URL() {
		t.Fatalf("stats URL = %q", st.URL)
	}
}

func TestRunBinLegacyPath(t *testing.T) {
	srv, err := testplatform.New(testplatform.Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := hardenedClient(t, srv.URL(), nil)
	r := c.Runner()
	out := r.RunBin(3, 0.1, 2, []bool{true, false, true})
	if out.Overtime && len(out.Answers) != 3 {
		t.Fatalf("legacy issue failed: %+v", out)
	}
	if len(out.Answers) != 3 {
		t.Fatalf("answers = %d", len(out.Answers))
	}

	// Against a dead platform the legacy path reports overtime — the
	// only failure signal its signature allows.
	srv.Kill()
	fast := hardenedClient(t, srv.URL(), func(cfg *Config) { cfg.RetryBudget = 1; cfg.FailureThreshold = 1 })
	out = fast.Runner().RunBin(2, 0.1, 2, []bool{true, false})
	if !out.Overtime {
		t.Fatal("dead platform did not surface as overtime on the legacy path")
	}
}

func TestNewClientValidation(t *testing.T) {
	if _, err := NewClient(Config{}); err == nil {
		t.Fatal("empty BaseURL accepted")
	}
	if _, err := NewClient(Config{BaseURL: "ftp://market"}); err == nil {
		t.Fatal("non-http URL accepted")
	}
	c, err := NewClient(Config{BaseURL: "http://market.example.com/"})
	if err != nil {
		t.Fatal(err)
	}
	if c.BaseURL() != "http://market.example.com" {
		t.Fatalf("BaseURL = %q", c.BaseURL())
	}
	if c.Stats().State != "ok" {
		t.Fatalf("fresh client state = %q", c.Stats().State)
	}
	if c.Degraded() {
		t.Fatal("fresh client degraded")
	}
}

func TestPlatformCancellation(t *testing.T) {
	// Enough bins that the run cannot finish before the cancel lands.
	in, plan, truth := chaosEnv(t, 20000)
	srv, err := testplatform.New(testplatform.Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := hardenedClient(t, srv.URL(), nil)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	var execErr error
	go func() {
		defer close(done)
		_, execErr = executor.ExecuteContext(ctx, c.Runner(), in, plan, truth, executor.Options{RunID: "cancel"})
	}()
	for srv.Requests() < 2 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-done
	if execErr != context.Canceled {
		t.Fatalf("canceled run returned %v", execErr)
	}
}
