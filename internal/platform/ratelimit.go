package platform

import (
	"sync"
	"time"
)

// tokenBucket is a classic token-bucket rate limiter: tokens accrue at
// rate per second up to burst, and each Reserve takes one, returning how
// long the caller must sleep before acting on it. Reservations may drive
// the balance negative — callers queue rather than spin — which keeps the
// long-run issue rate at exactly rate regardless of arrival pattern. Safe
// for concurrent use.
type tokenBucket struct {
	rate  float64 // tokens per second; <= 0 means unlimited
	burst float64
	now   func() time.Time

	mu     sync.Mutex
	tokens float64
	last   time.Time
}

func newTokenBucket(rate float64, burst int, now func() time.Time) *tokenBucket {
	return &tokenBucket{rate: rate, burst: float64(burst), now: now, tokens: float64(burst)}
}

// Reserve takes one token and returns how long the caller must wait
// before proceeding (zero when a token was available immediately). The
// reservation is unconditional — there is no cancel — so callers that
// abandon the wait simply leave their slot to drain, which is the
// behaviour a per-job issue loop wants.
func (b *tokenBucket) Reserve() time.Duration {
	if b.rate <= 0 {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.now()
	if !b.last.IsZero() {
		b.tokens += now.Sub(b.last).Seconds() * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.last = now
	b.tokens--
	if b.tokens >= 0 {
		return 0
	}
	return time.Duration(-b.tokens / b.rate * float64(time.Second))
}

// backoff returns the capped-exponential-with-full-jitter delay for the
// given retry attempt (attempt 0 is the first retry): a uniform draw from
// [0, min(max, base·2^attempt)) using rnd, a uniform source in [0, 1). A
// nil rnd skips the jitter and returns the full window, which keeps tests
// deterministic. Full jitter decorrelates retry herds after a shared
// failure — the spread matters more than the exact curve.
func backoff(base, max time.Duration, attempt int, rnd func() float64) time.Duration {
	if base <= 0 {
		return 0
	}
	if max < base {
		max = base
	}
	// Double up to the cap; stopping at the cap keeps the doubling
	// overflow-free for any attempt count.
	window := base
	for i := 0; i < attempt && window < max; i++ {
		window *= 2
	}
	if window > max {
		window = max
	}
	if rnd == nil {
		return window
	}
	return time.Duration(rnd() * float64(window))
}
