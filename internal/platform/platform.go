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
// the executor instead of piling goroutines. A circuit breaker opens
// after consecutive failures; a breaker-open refusal and an exhausted
// budget are terminal — the executor converts them into a partial,
// explicitly degraded ExecutionReport rather than losing delivered work.
package platform

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/crowdsim"
	"repro/internal/executor"
	"repro/internal/obs"
)

// Defaults for Config's zero values.
const (
	// DefaultTimeout bounds one bin-issue HTTP attempt.
	DefaultTimeout = 10 * time.Second
	// DefaultRetryBudget is the per-job wire-retry allowance.
	DefaultRetryBudget = 64
)

// Fixed resilience parameters.
const (
	// defaultFailureThreshold is the consecutive-failure count that opens
	// the breaker.
	defaultFailureThreshold = 3
	// defaultBackoffBase seeds the exponential backoff window;
	// defaultBackoffCap caps it.
	defaultBackoffBase = 50 * time.Millisecond
	defaultBackoffCap  = 2 * time.Second
	// maxInFlight bounds concurrent issues per client.
	maxInFlight = 16
	// breakerCooldown is how long an open breaker shuts the marketplace
	// out before the next probe.
	breakerCooldown = 15 * time.Second
	// rateBurst is the token-bucket burst when Config.RPS is set.
	rateBurst = 1
)

// maxBinBody bounds a decoded bin response — a bin outcome is a few
// booleans per task, so anything past this is garbage, not data.
const maxBinBody = 1 << 20

// binTransport is the transport of every Client without a
// Config.Transport, shared the way http.DefaultTransport is. A bin body
// is under 1 KiB, so gzip is not negotiated; and one idle connection per
// issue a client may have in flight is kept, so concurrent run jobs reuse
// their connections instead of re-dialing (net/http's default keeps 2).
var binTransport = func() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.DisableCompression = true
	t.MaxIdleConnsPerHost = maxInFlight
	return t
}()

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
	// Transport overrides the HTTP transport (tests); nil selects a
	// transport shared by every Client. It is called directly, not
	// through an http.Client: redirects are not followed — a 3xx is a
	// permanent rejection like any other non-2xx, non-5xx, non-429.
	Transport http.RoundTripper
	// Registry receives the slade_platform_* instruments; nil creates a
	// private registry (metrics still work, nothing is exported).
	Registry *obs.Registry
}

// Client issues bins to one remote marketplace. It is safe for
// concurrent use; per-job state (the retry budget) lives on the Runner
// values it hands out.
type Client struct {
	base        string
	auth        string
	timeout     time.Duration
	retryBudget int
	// backoffBase and backoffCap are defaultBackoffBase/Cap; the chaos
	// tests shrink them.
	backoffBase time.Duration
	backoffCap  time.Duration
	rt          http.RoundTripper
	tmpl        *http.Request // POST BaseURL+"/v1/bins"; each attempt copies it
	binsURL     string        // tmpl's URL, password redacted, for errors
	breaker     *breaker
	bucket      *tokenBucket
	inflight    chan struct{}

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
	u, err := url.Parse(base + "/v1/bins")
	if err != nil {
		return nil, fmt.Errorf("platform: BaseURL %q: %w", cfg.BaseURL, err)
	}
	if cfg.Auth == "" && u.User != nil {
		// Credentials in the URL go out as Basic auth, as http.Client
		// sends them.
		pass, _ := u.User.Password()
		cfg.Auth = "Basic " + base64.StdEncoding.EncodeToString([]byte(u.User.Username()+":"+pass))
	}
	if cfg.Transport == nil {
		cfg.Transport = binTransport
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
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	c := &Client{
		base:        base,
		auth:        cfg.Auth,
		timeout:     cfg.Timeout,
		retryBudget: cfg.RetryBudget,
		backoffBase: defaultBackoffBase,
		backoffCap:  defaultBackoffCap,
		rt:          cfg.Transport,
		tmpl:        &http.Request{Method: http.MethodPost, URL: u, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1},
		binsURL:     u.Redacted(),
		breaker:     newBreaker(defaultFailureThreshold, breakerCooldown, time.Now),
		bucket:      newTokenBucket(cfg.RPS, rateBurst, time.Now),
		inflight:    make(chan struct{}, maxInFlight),
		rnd:         rand.New(rand.NewSource(1)), // the jitter stream is the client's only randomness

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

// IdempotencyKey derives the idempotency key for one bin purchase. It is
// pure — the same (run, bin, attempt epoch) coordinates always name the
// same purchase, across client restarts — which is what lets a retry
// after an ambiguous failure reconcile instead of double-spend.
func IdempotencyKey(runID string, bin, attempt int) string {
	var scratch [64]byte
	b := append(scratch[:0], runID...)
	b = append(b, ':')
	b = strconv.AppendInt(b, int64(bin), 10)
	b = append(b, ':')
	b = strconv.AppendInt(b, int64(attempt), 10)
	return string(b)
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
	resp     []byte // response body scratch, reused from bin to bin
}

// RunBinContext issues one bin with full failure handling. A returned
// error is terminal for the execution: the context was canceled, the
// breaker refused the issue, the retry budget ran dry, the platform
// rejected the bin permanently, or pay is not a finite number.
func (r *Runner) RunBinContext(ctx context.Context, bc executor.BinContext, cardinality int, pay float64, difficulty int, truth []bool) (crowdsim.BinOutcome, error) {
	runID := bc.RunID
	if runID == "" {
		runID = r.fallback
	}
	key := IdempotencyKey(runID, bc.Bin, bc.Attempt)
	if math.IsInf(pay, 0) || math.IsNaN(pay) {
		return crowdsim.BinOutcome{}, fmt.Errorf("platform: encode bin: unsupported pay %v", pay)
	}
	// Every attempt sends these bytes. They are never rewritten: the
	// transport may still read a failed attempt's body after RoundTrip
	// has returned.
	body := appendBinRequest(make([]byte, 0, binRequestSize(len(truth))), cardinality, pay, difficulty, truth)
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			if r.budget <= 0 {
				return crowdsim.BinOutcome{}, fmt.Errorf("platform: retry budget exhausted: %w", lastErr)
			}
			r.budget--
			r.c.retries.Inc()
			delay := backoff(r.c.backoffBase, r.c.backoffCap, attempt-1, r.c.jitter)
			if err := ctxSleep(ctx, delay); err != nil {
				return crowdsim.BinOutcome{}, err
			}
		}
		out, retryable, err := r.issue(ctx, key, body, len(truth))
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
func (r *Runner) issue(ctx context.Context, key string, body []byte, tasks int) (out crowdsim.BinOutcome, retryable bool, err error) {
	c := r.c
	if !c.breaker.Allow() {
		state, _, last := c.breaker.Snapshot()
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
		if serr := ctxSleep(ctx, wait); serr != nil {
			c.breaker.Release()
			c.gaugeBreaker()
			return out, false, serr
		}
	}

	c.attempts.Inc()
	out, replay, retryable, err := r.post(ctx, key, body, tasks)
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

// binRequestSize bounds the encoding of a bin issue with the given
// number of tasks: 46 bytes of punctuation and field names, two int64s
// of 20, a float of at most 25, and "null" or "false," per task.
func binRequestSize(tasks int) int { return 116 + 6*tasks }

// appendBinRequest appends the wire form of one bin issue to b — for a
// finite pay, byte for byte what json.Marshal writes for the struct
// {cardinality int, pay float64, difficulty int, truth []bool}.
func appendBinRequest(b []byte, cardinality int, pay float64, difficulty int, truth []bool) []byte {
	b = append(b, `{"cardinality":`...)
	b = strconv.AppendInt(b, int64(cardinality), 10)
	b = append(b, `,"pay":`...)
	// encoding/json's float64 form: %f, except exponent notation below
	// 1e-6 and from 1e21 on, with the exponent unpadded (e-7, not e-07).
	f := byte('f')
	if abs := math.Abs(pay); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		f = 'e'
	}
	b = strconv.AppendFloat(b, pay, f, -1, 64)
	if n := len(b); f == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	b = append(b, `,"difficulty":`...)
	b = strconv.AppendInt(b, int64(difficulty), 10)
	b = append(b, `,"truth":`...)
	if truth == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, t := range truth {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendBool(b, t)
		}
		b = append(b, ']')
	}
	return append(b, '}')
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
func (r *Runner) post(ctx context.Context, key string, body []byte, tasks int) (out crowdsim.BinOutcome, replay, retryable bool, err error) {
	c := r.c
	actx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()
	req := c.tmpl.WithContext(actx)
	vals := &[3]string{"application/json", key, c.auth} // one allocation backs every header value
	req.Header = http.Header{"Content-Type": vals[0:1:1], "Idempotency-Key": vals[1:2:2]}
	if c.auth != "" {
		req.Header["Authorization"] = vals[2:3:3]
	}
	// A body net/http knows is in memory goes out in the same write as
	// the headers.
	req.Body = io.NopCloser(bytes.NewReader(body))
	req.GetBody = func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(body)), nil }
	req.ContentLength = int64(len(body))
	start := time.Now()
	resp, err := c.rt.RoundTrip(req)
	if err != nil {
		return out, false, true, fmt.Errorf("platform: issue %s: %w", key, &url.Error{Op: "Post", URL: c.binsURL, Err: err})
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
	// A truncated, oversized or mangled body after a 200 is retryable:
	// the commit already happened — re-read it under the same key.
	raw, rerr := r.readResponse(resp.Body)
	if rerr != nil {
		return out, false, true, fmt.Errorf("platform: issue %s: reading response: %w", key, rerr)
	}
	var wire binResponse
	if tasks > 0 {
		// Sized to the bin, the answers decode in place; both slices
		// share one allocation.
		both := make([]bool, 2*tasks)
		wire.Answers, wire.Correct = both[:0:tasks], both[tasks:tasks:2*tasks]
	}
	if derr := json.Unmarshal(raw, &wire); derr != nil {
		return out, false, true, fmt.Errorf("platform: issue %s: reading response: %w", key, derr)
	}
	if len(wire.Answers) != tasks || len(wire.Correct) != tasks {
		return out, false, true, fmt.Errorf("platform: issue %s: response has %d answers for %d tasks", key, len(wire.Answers), tasks)
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

// errBodyTooLarge reports a bin response past maxBinBody.
var errBodyTooLarge = fmt.Errorf("body exceeds %d bytes", maxBinBody)

// readResponse reads a whole response body into the Runner's scratch,
// which the next bin reuses: nothing of it may outlive the decode.
func (r *Runner) readResponse(body io.Reader) ([]byte, error) {
	b := r.resp[:0]
	for {
		if len(b) == cap(b) {
			b = append(b, make([]byte, max(512, len(b)))...)[:len(b)]
		}
		n, err := body.Read(b[len(b):min(cap(b), maxBinBody+1)])
		b = b[:len(b)+n]
		if len(b) > maxBinBody {
			r.resp = nil // garbage does not pin a megabyte to the job
			return nil, errBodyTooLarge
		}
		r.resp = b
		switch {
		case err == io.EOF:
			return b, nil
		case err != nil:
			return nil, err
		}
	}
}

// gaugeBreaker mirrors the breaker state into its gauge.
func (c *Client) gaugeBreaker() {
	state, _, _ := c.breaker.Snapshot()
	c.breakerState.Set(int64(state))
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
