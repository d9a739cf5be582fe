package platform

import (
	"sync"
	"time"
)

// breakerState is a breaker's position. The values are the
// slade_platform_breaker_state gauge readings; String gives the
// operator-facing names reported in /v1/stats and /v1/healthz: "ok"
// (closed, traffic flows), "probing" (half-open, one trial request in
// flight), "open" (marketplace shut out, cooldown running).
type breakerState int

const (
	breakerClosed breakerState = iota
	breakerHalfOpen
	breakerOpen
)

func (s breakerState) String() string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "probing"
	default:
		return "ok"
	}
}

// breaker is a circuit breaker: threshold consecutive failures open it
// for cooldown, after which exactly one probe request is let through
// (half-open); the probe's outcome closes or re-opens it. A canceled
// probe releases its admission rather than charging it. All methods are
// safe for concurrent use.
type breaker struct {
	threshold int
	cooldown  time.Duration
	now       func() time.Time

	mu       sync.Mutex
	state    breakerState
	failures int       // consecutive, since the last success
	openedAt time.Time // of the most recent open transition
	lastErr  string    // most recent failure, for health reports
}

func newBreaker(threshold int, cooldown time.Duration, now func() time.Time) *breaker {
	return &breaker{threshold: threshold, cooldown: cooldown, now: now}
}

// Allow reports whether a request may be sent right now. An open breaker
// whose cooldown has elapsed admits exactly one caller (the probe) and
// moves to half-open; further callers are refused until the probe
// settles via Record or Release.
func (b *breaker) Allow() bool {
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

// Release settles a probe admission whose attempt produced no health
// signal (the caller's context was canceled mid-flight): half-open
// reverts to open with its original openedAt — the cooldown has already
// elapsed, so the next real issue re-probes immediately. Closed and open
// breakers are left untouched; nothing is charged to the failure run.
func (b *breaker) Release() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == breakerHalfOpen {
		b.state = breakerOpen
	}
}

// Record settles one attempt's outcome. Any success closes the breaker
// and clears the failure run; a failure while half-open (the probe
// failed) or the threshold-th consecutive failure re-opens it. opened
// reports whether this call performed that open transition, so the
// breaker-opens counter counts each transition exactly once.
func (b *breaker) Record(err error) (opened bool) {
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
		return true
	}
	return false
}

// Snapshot returns the fields health and stats reports need in one lock
// acquisition.
func (b *breaker) Snapshot() (state breakerState, failures int, lastErr string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state, b.failures, b.lastErr
}
