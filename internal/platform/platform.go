// Package platform is the production-grade remote marketplace client: an
// executor.BinRunner that issues bins to an external crowd platform over
// HTTP and survives every failure mode the wire can produce.
//
// # Money safety
//
// A crowd marketplace charges on commit, and the wire can fail *after*
// the commit (timeout, truncated body, dropped response, 5xx from a
// proxy in front of a healthy backend). The client therefore never
// assumes a failed request didn't spend: every issue carries an
// idempotency key derived deterministically from (run id, bin index,
// attempt epoch) — see IdempotencyKey — and a retry re-sends the same
// key, so a platform that already committed the bin replays the stored
// result instead of charging again. The executor's own overtime retries
// arrive at a new attempt epoch and are genuinely new purchases.
//
// # Failure containment
//
// Each issue is bounded by a per-call timeout; transient failures
// (transport errors, 5xx, 429, truncated bodies) retry under capped
// exponential backoff with full jitter against a per-job retry budget —
// a budget distinct from executor.Options.MaxRetries, which governs
// overtime re-issues, not wire retries. A token bucket caps the issue
// rate and a bounded in-flight semaphore propagates backpressure into
// the executor instead of piling goroutines. The shared
// resilience.Breaker (the same one guarding cluster peers) opens after
// consecutive failures; a breaker-open refusal and an exhausted budget
// are terminal — the executor converts them into a partial, explicitly
// degraded ExecutionReport rather than losing delivered work.
package platform

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/crowdsim"
	"repro/internal/executor"
	"repro/internal/obs"
	"repro/internal/resilience"
)

// Defaults for Config's zero values.
const (
	// DefaultTimeout bounds one bin-issue HTTP attempt.
	DefaultTimeout = 10 * time.Second
	// DefaultRetryBudget is the per-job wire-retry allowance.
	DefaultRetryBudget = 64
	// DefaultMaxInFlight bounds concurrent issues per client.
	DefaultMaxInFlight = 16
	// DefaultBackoffBase seeds the exponential backoff window.
	DefaultBackoffBase = 50 * time.Millisecond
	// DefaultBackoffCap caps the backoff window.
	DefaultBackoffCap = 2 * time.Second
)

// maxBinBody bounds a decoded bin response — a bin outcome is a few
// booleans per task, so anything past this is garbage, not data.
const maxBinBody = 1 << 20

// Config parameterizes a Client.
type Config struct {
	// BaseURL is the marketplace root, e.g. "https://market.example.com";
	// bins are issued by POST to BaseURL+"/v1/bins". Required.
	BaseURL string
	// Auth, when non-empty, is sent verbatim as the Authorization header.
	Auth string
	// Timeout bounds one issue attempt; <= 0 selects DefaultTimeout.
	Timeout time.Duration
	// RetryBudget is the per-job wire-retry allowance: how many failed
	// issue attempts a single run job may retry before the execution
	// degrades. Zero selects DefaultRetryBudget; -1 disables wire
	// retries entirely (the first failure degrades).
	RetryBudget int
	// RPS caps the steady-state issue rate in requests per second;
	// <= 0 is unlimited.
	RPS float64
	// Burst is the token-bucket burst for RPS; <= 0 selects 1.
	Burst int
	// MaxInFlight bounds concurrent issues; <= 0 selects
	// DefaultMaxInFlight.
	MaxInFlight int
	// FailureThreshold consecutive failures open the breaker; <= 0
	// selects resilience.DefaultFailureThreshold.
	FailureThreshold int
	// Cooldown is the open-breaker cooldown; <= 0 selects
	// resilience.DefaultCooldown.
	Cooldown time.Duration
	// BackoffBase/BackoffCap shape the retry backoff window; zero
	// selects the defaults above.
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// JitterSeed seeds the backoff jitter RNG; zero selects 1. The
	// jitter stream is the client's only randomness.
	JitterSeed int64
	// Transport overrides the HTTP transport (tests); nil selects
	// http.DefaultTransport.
	Transport http.RoundTripper
	// Registry receives the slade_platform_* instruments; nil creates a
	// private registry (metrics still work, nothing is exported).
	Registry *obs.Registry
	// Clock overrides time.Now for breaker cooldowns and rate limiting
	// in tests.
	Clock func() time.Time
}

// Client issues bins to one remote marketplace. It is safe for
// concurrent use; per-job state (the retry budget) lives on the Runner
// values it hands out.
type Client struct {
	base        string
	auth        string
	timeout     time.Duration
	retryBudget int
	backoffBase time.Duration
	backoffCap  time.Duration
	http        *http.Client
	breaker     *resilience.Breaker
	bucket      *resilience.TokenBucket
	inflight    chan struct{}
	sleep       func(ctx context.Context, d time.Duration) error

	rndMu sync.Mutex
	rnd   *rand.Rand

	attempts     *obs.Counter
	retries      *obs.Counter
	failures     *obs.Counter
	replays      *obs.Counter
	breakerOpens *obs.Counter
	degradedRuns *obs.Counter
	inflightG    *obs.Gauge
	breakerState *obs.Gauge
	latency      *obs.Histogram
	throttle     *obs.Histogram

	runSeq atomic.Uint64 // fallback run-id sequence for anonymous runners
}

// NewClient builds a Client for the marketplace at cfg.BaseURL.
func NewClient(cfg Config) (*Client, error) {
	base := strings.TrimRight(cfg.BaseURL, "/")
	if base == "" {
		return nil, errors.New("platform: BaseURL is required")
	}
	if !strings.HasPrefix(base, "http://") && !strings.HasPrefix(base, "https://") {
		return nil, fmt.Errorf("platform: BaseURL %q is not an http(s) URL", cfg.BaseURL)
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = DefaultTimeout
	}
	switch {
	case cfg.RetryBudget == 0:
		cfg.RetryBudget = DefaultRetryBudget
	case cfg.RetryBudget < 0:
		cfg.RetryBudget = 0
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = DefaultMaxInFlight
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = DefaultBackoffBase
	}
	if cfg.BackoffCap <= 0 {
		cfg.BackoffCap = DefaultBackoffCap
	}
	seed := cfg.JitterSeed
	if seed == 0 {
		seed = 1
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	c := &Client{
		base:        base,
		auth:        cfg.Auth,
		timeout:     cfg.Timeout,
		retryBudget: cfg.RetryBudget,
		backoffBase: cfg.BackoffBase,
		backoffCap:  cfg.BackoffCap,
		http:        &http.Client{Transport: cfg.Transport},
		breaker:     resilience.NewBreaker(cfg.FailureThreshold, cfg.Cooldown, cfg.Clock),
		bucket:      resilience.NewTokenBucket(cfg.RPS, cfg.Burst, cfg.Clock),
		inflight:    make(chan struct{}, cfg.MaxInFlight),
		sleep:       ctxSleep,
		rnd:         rand.New(rand.NewSource(seed)),

		attempts:     reg.Counter("slade_platform_attempts_total", "Bin issue HTTP attempts, including retries."),
		retries:      reg.Counter("slade_platform_retries_total", "Bin issue wire retries (same idempotency key)."),
		failures:     reg.Counter("slade_platform_failures_total", "Failed bin issue attempts."),
		replays:      reg.Counter("slade_platform_replays_total", "Issues reconciled from the platform's idempotent replay instead of a fresh charge."),
		breakerOpens: reg.Counter("slade_platform_breaker_opens_total", "Platform circuit-breaker open transitions."),
		degradedRuns: reg.Counter("slade_platform_degraded_runs_total", "Run jobs that finished with a degraded partial report."),
		inflightG:    reg.Gauge("slade_platform_inflight", "Bin issues currently in flight."),
		breakerState: reg.Gauge("slade_platform_breaker_state", "Platform breaker state: 0 ok, 1 probing, 2 open."),
		latency:      reg.Histogram("slade_platform_issue_latency_seconds", "Successful bin issue round-trip latency.", obs.HistogramOpts{}),
		throttle:     reg.Histogram("slade_platform_throttle_wait_seconds", "Time bin issues waited on the rate limiter.", obs.HistogramOpts{}),
	}
	return c, nil
}

// BaseURL returns the marketplace root the client issues against.
func (c *Client) BaseURL() string { return c.base }

// IdempotencyKey derives the idempotency key for one bin purchase. It is
// pure — the same (run, bin, attempt epoch) coordinates always name the
// same purchase, across client restarts — which is what lets a retry
// after an ambiguous failure reconcile instead of double-spend.
func IdempotencyKey(runID string, bin, attempt int) string {
	return fmt.Sprintf("%s:%d:%d", runID, bin, attempt)
}

// Runner returns a per-job bin runner carrying a fresh retry budget.
// Runners follow the executor.BinRunner contract: sequential use within
// one execution, one runner per run job.
func (c *Client) Runner() *Runner {
	return &Runner{
		c:        c,
		budget:   c.retryBudget,
		fallback: fmt.Sprintf("anon-%d", c.runSeq.Add(1)),
	}
}

// NoteDegradedRun records that a run job finished with a degraded
// partial report (the serving layer calls this when it observes
// Report.Degraded).
func (c *Client) NoteDegradedRun() { c.degradedRuns.Inc() }

// Runner issues one job's bins through the client, consuming the job's
// retry budget. Not safe for concurrent use (the BinRunner contract is
// sequential); concurrent jobs each get their own Runner.
type Runner struct {
	c        *Client
	budget   int
	fallback string // run id when BinContext carries none
	binSeq   int    // synthetic bin index for the legacy RunBin path
}

// RunBinContext issues one bin with full failure handling. A returned
// error is terminal for the execution: the context was canceled, the
// breaker refused the issue, the retry budget ran dry, or the platform
// rejected the bin permanently.
func (r *Runner) RunBinContext(ctx context.Context, bc executor.BinContext, cardinality int, pay float64, difficulty int, truth []bool) (crowdsim.BinOutcome, error) {
	runID := bc.RunID
	if runID == "" {
		runID = r.fallback
	}
	key := IdempotencyKey(runID, bc.Bin, bc.Attempt)
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			if r.budget <= 0 {
				return crowdsim.BinOutcome{}, fmt.Errorf("platform: retry budget exhausted: %w", lastErr)
			}
			r.budget--
			r.c.retries.Inc()
			delay := resilience.Backoff(r.c.backoffBase, r.c.backoffCap, attempt-1, r.c.jitter)
			if err := r.c.sleep(ctx, delay); err != nil {
				return crowdsim.BinOutcome{}, err
			}
		}
		out, retryable, err := r.c.issue(ctx, key, cardinality, pay, difficulty, truth)
		if err == nil {
			return out, nil
		}
		if cerr := ctx.Err(); cerr != nil {
			return crowdsim.BinOutcome{}, cerr
		}
		if !retryable {
			return crowdsim.BinOutcome{}, err
		}
		lastErr = err
	}
}

// RunBin is the legacy BinRunner path: issue with a background context
// and synthetic coordinates. A terminal issue failure is reported as an
// overtime outcome — the executor's overtime accounting absorbs it —
// because this signature has no error channel; serving-layer executions
// use RunBinContext and get real degradation instead.
func (r *Runner) RunBin(cardinality int, pay float64, difficulty int, truth []bool) crowdsim.BinOutcome {
	bin := r.binSeq
	r.binSeq++
	out, err := r.RunBinContext(context.Background(), executor.BinContext{Bin: bin}, cardinality, pay, difficulty, truth)
	if err != nil {
		return crowdsim.BinOutcome{
			Answers:  make([]bool, len(truth)),
			Correct:  make([]bool, len(truth)),
			Overtime: true,
		}
	}
	return out
}

// jitter draws one uniform float in [0, 1) from the client's seeded
// jitter stream.
func (c *Client) jitter() float64 {
	c.rndMu.Lock()
	defer c.rndMu.Unlock()
	return c.rnd.Float64()
}

// issue runs one gated attempt: breaker admission, in-flight slot, rate
// limit, then the POST. retryable reports whether the failure is worth
// another attempt under the same idempotency key.
func (c *Client) issue(ctx context.Context, key string, cardinality int, pay float64, difficulty int, truth []bool) (out crowdsim.BinOutcome, retryable bool, err error) {
	if !c.breaker.Allow() {
		state, _, _, last := c.breaker.Snapshot()
		msg := fmt.Sprintf("platform: circuit breaker %s", state)
		if last != "" {
			msg += ": last error: " + last
		}
		return out, false, errors.New(msg)
	}
	// The breaker admitted the attempt (possibly as the half-open
	// probe): from here every exit settles it exactly once.
	select {
	case c.inflight <- struct{}{}:
	case <-ctx.Done():
		c.breaker.Release()
		c.gaugeBreaker()
		return out, false, ctx.Err()
	}
	defer func() { <-c.inflight }()
	c.inflightG.Inc()
	defer c.inflightG.Dec()

	if wait := c.bucket.Reserve(); wait > 0 {
		c.throttle.Observe(wait.Seconds())
		if serr := c.sleep(ctx, wait); serr != nil {
			c.breaker.Release()
			c.gaugeBreaker()
			return out, false, serr
		}
	}

	c.attempts.Inc()
	out, replay, retryable, err := c.post(ctx, key, cardinality, pay, difficulty, truth)
	switch {
	case err == nil:
		c.breaker.Record(nil)
		if replay {
			c.replays.Inc()
		}
	case ctx.Err() != nil:
		// The caller canceled mid-attempt: no health signal, hand the
		// probe admission back uncharged.
		c.breaker.Release()
	default:
		c.failures.Inc()
		if c.breaker.Record(err) {
			c.breakerOpens.Inc()
		}
	}
	c.gaugeBreaker()
	return out, retryable, err
}

// binRequest is the wire shape of one bin issue.
type binRequest struct {
	Cardinality int     `json:"cardinality"`
	Pay         float64 `json:"pay"`
	Difficulty  int     `json:"difficulty"`
	Truth       []bool  `json:"truth"`
}

// binResponse is the wire shape of one bin outcome.
type binResponse struct {
	Answers    []bool  `json:"answers"`
	Correct    []bool  `json:"correct"`
	DurationMS float64 `json:"duration_ms"`
	Overtime   bool    `json:"overtime"`
}

// post performs the HTTP round trip for one attempt. replay reports the
// platform served a previously committed result (idempotent
// reconciliation); retryable classifies the failure.
func (c *Client) post(ctx context.Context, key string, cardinality int, pay float64, difficulty int, truth []bool) (out crowdsim.BinOutcome, replay, retryable bool, err error) {
	body, err := json.Marshal(binRequest{Cardinality: cardinality, Pay: pay, Difficulty: difficulty, Truth: truth})
	if err != nil {
		return out, false, false, fmt.Errorf("platform: encode bin: %w", err)
	}
	actx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodPost, c.base+"/v1/bins", bytes.NewReader(body))
	if err != nil {
		return out, false, false, fmt.Errorf("platform: build request: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Idempotency-Key", key)
	if c.auth != "" {
		req.Header.Set("Authorization", c.auth)
	}
	start := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		return out, false, true, fmt.Errorf("platform: issue %s: %w", key, err)
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusOK:
		// fall through to decode
	case resp.StatusCode >= 500 || resp.StatusCode == http.StatusTooManyRequests:
		// Ambiguous: the backend may have committed before the error.
		// The same key reconciles on retry.
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096)) //nolint:errcheck
		return out, false, true, fmt.Errorf("platform: issue %s: HTTP %d", key, resp.StatusCode)
	default:
		// A definitive rejection (bad auth, malformed bin): retrying the
		// same request cannot succeed.
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return out, false, false, fmt.Errorf("platform: issue %s rejected: HTTP %d: %s", key, resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	var wire binResponse
	if derr := json.NewDecoder(io.LimitReader(resp.Body, maxBinBody)).Decode(&wire); derr != nil {
		// Truncated or mangled body after a 200: the commit already
		// happened — re-read it under the same key.
		return out, false, true, fmt.Errorf("platform: issue %s: reading response: %w", key, derr)
	}
	if len(wire.Answers) != len(truth) || len(wire.Correct) != len(truth) {
		return out, false, true, fmt.Errorf("platform: issue %s: response has %d answers for %d tasks", key, len(wire.Answers), len(truth))
	}
	c.latency.ObserveSince(start)
	out = crowdsim.BinOutcome{
		Answers:  wire.Answers,
		Correct:  wire.Correct,
		Duration: time.Duration(wire.DurationMS * float64(time.Millisecond)),
		Overtime: wire.Overtime,
	}
	return out, resp.Header.Get("X-Idempotent-Replay") == "true", false, nil
}

// gaugeBreaker mirrors the breaker state into its gauge.
func (c *Client) gaugeBreaker() {
	switch state, _, _, _ := c.breaker.Snapshot(); state {
	case "open":
		c.breakerState.Set(2)
	case "probing":
		c.breakerState.Set(1)
	default:
		c.breakerState.Set(0)
	}
}

// ctxSleep sleeps for d or until ctx is done, whichever comes first.
func ctxSleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
