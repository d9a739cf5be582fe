// Package resilience holds the fault-tolerance primitives shared by the
// outbound clients — the cluster's peer fan-out and the remote-platform
// bin issuer: a circuit breaker with single-probe half-open semantics, a
// token-bucket rate limiter, and capped exponential backoff with full
// jitter. Everything is stdlib-only, clock-injectable, and safe for
// concurrent use.
//
// The breaker started life as internal/cluster's per-peer gate; it moved
// here verbatim (semantics and all) when the platform client needed the
// same protection, so the cluster's hardened probe behaviour — healthy
// checks never consume the probe admission, a canceled probe releases
// rather than charges — is the one breaker every outbound path shares.
package resilience

import (
	"sync"
	"time"
)

// Breaker states. The wire names (reported in /v1/stats and /v1/healthz)
// are the operator-facing vocabulary: "ok" (closed, traffic flows),
// "open" (endpoint shut out, cooldown running), "probing" (half-open, one
// trial request in flight).
const (
	breakerClosed = iota
	breakerOpen
	breakerHalfOpen
)

// DefaultFailureThreshold is the consecutive-failure count that opens a
// breaker when the configured threshold is zero.
const DefaultFailureThreshold = 3

// DefaultCooldown is how long an open breaker shuts its endpoint out
// before the next probe when the configured cooldown is zero.
const DefaultCooldown = 15 * time.Second

// Breaker is a circuit breaker: threshold consecutive failures open it
// for cooldown, after which exactly one probe request is let through
// (half-open); the probe's outcome closes or re-opens it. All methods are
// safe for concurrent use.
type Breaker struct {
	threshold int
	cooldown  time.Duration
	now       func() time.Time

	mu       sync.Mutex
	state    int
	failures int       // consecutive, since the last success
	openedAt time.Time // of the most recent open transition
	opens    uint64    // lifetime open transitions
	lastErr  string    // most recent failure, for health reports
}

// NewBreaker builds a breaker; threshold <= 0 selects
// DefaultFailureThreshold, cooldown <= 0 selects DefaultCooldown, and a
// nil clock selects time.Now.
func NewBreaker(threshold int, cooldown time.Duration, now func() time.Time) *Breaker {
	if threshold <= 0 {
		threshold = DefaultFailureThreshold
	}
	if cooldown <= 0 {
		cooldown = DefaultCooldown
	}
	if now == nil {
		now = time.Now
	}
	return &Breaker{threshold: threshold, cooldown: cooldown, now: now}
}

// Allow reports whether a request may be sent to the endpoint right now.
// An open breaker whose cooldown has elapsed admits exactly one caller
// (the probe) and moves to half-open; further callers are refused until
// the probe settles via Record.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if b.now().Sub(b.openedAt) >= b.cooldown {
			b.state = breakerHalfOpen
			return true
		}
		return false
	default: // half-open: the probe is already out
		return false
	}
}

// Healthy reports whether the endpoint is currently eligible for traffic
// WITHOUT consuming the open→half-open probe admission: closed counts,
// as does open with its cooldown elapsed (the next dispatch may probe).
// Half-open does not — a probe is already in flight, and routing more
// work at the endpoint would only bounce off Allow. Routing decisions use
// this; only the dispatch path calls Allow, so a probe admission is
// always followed by a real request that settles it via Record.
func (b *Breaker) Healthy() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		return b.now().Sub(b.openedAt) >= b.cooldown
	default: // half-open
		return false
	}
}

// Release settles a probe admission whose attempt produced no endpoint-
// health signal (the caller's context was canceled mid-flight): half-open
// reverts to open with its original openedAt — the cooldown has already
// elapsed, so the next real dispatch re-probes immediately. Closed and
// open breakers are left untouched; nothing is charged to the failure
// run.
func (b *Breaker) Release() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == breakerHalfOpen {
		b.state = breakerOpen
	}
}

// Record settles one attempt's outcome. Any success closes the breaker
// and clears the failure run; a failure while half-open (the probe
// failed) or the threshold-th consecutive failure re-opens it. opened
// reports whether this call performed that open transition, so callers
// mirroring opens into a metric count each transition exactly once.
func (b *Breaker) Record(err error) (opened bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if err == nil {
		b.state = breakerClosed
		b.failures = 0
		b.lastErr = ""
		return false
	}
	b.failures++
	b.lastErr = err.Error()
	if b.state == breakerHalfOpen || (b.state == breakerClosed && b.failures >= b.threshold) {
		b.state = breakerOpen
		b.openedAt = b.now()
		b.opens++
		return true
	}
	return false
}

// StateName renders the operator-facing state string.
func (b *Breaker) StateName() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stateNameLocked()
}

// stateNameLocked renders the state string; caller holds b.mu.
func (b *Breaker) stateNameLocked() string {
	switch b.state {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "probing"
	default:
		return "ok"
	}
}

// Snapshot returns the fields health and stats reports need in one lock
// acquisition.
func (b *Breaker) Snapshot() (state string, failures int, opens uint64, lastErr string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stateNameLocked(), b.failures, b.opens, b.lastErr
}
