package platform

import (
	"testing"
	"time"
)

func TestTokenBucketBurstThenThrottle(t *testing.T) {
	clk := newFakeClock()
	b := newTokenBucket(10, 3, clk.now) // 10/s, burst 3
	for i := 0; i < 3; i++ {
		if wait := b.Reserve(); wait != 0 {
			t.Fatalf("burst reserve %d: wait %v, want 0", i, wait)
		}
	}
	// Bucket empty: the next reservations queue at 100ms spacing.
	if wait := b.Reserve(); wait != 100*time.Millisecond {
		t.Fatalf("first queued reserve: wait %v, want 100ms", wait)
	}
	if wait := b.Reserve(); wait != 200*time.Millisecond {
		t.Fatalf("second queued reserve: wait %v, want 200ms", wait)
	}
	// Time passes: the queue drains and tokens accrue again.
	clk.advance(300 * time.Millisecond)
	if wait := b.Reserve(); wait != 0 {
		t.Fatalf("post-drain reserve: wait %v, want 0", wait)
	}
}

func TestTokenBucketRefillCapsAtBurst(t *testing.T) {
	clk := newFakeClock()
	b := newTokenBucket(100, 2, clk.now)
	b.Reserve()
	b.Reserve()
	clk.advance(time.Hour) // refill far beyond burst
	for i := 0; i < 2; i++ {
		if wait := b.Reserve(); wait != 0 {
			t.Fatalf("reserve %d after long idle: wait %v, want 0", i, wait)
		}
	}
	if wait := b.Reserve(); wait == 0 {
		t.Fatal("third reserve after long idle was free — burst cap not applied")
	}
}

func TestTokenBucketUnlimited(t *testing.T) {
	b := newTokenBucket(0, 1, newFakeClock().now)
	for i := 0; i < 100; i++ {
		if wait := b.Reserve(); wait != 0 {
			t.Fatalf("unlimited bucket imposed wait %v", wait)
		}
	}
}

// TestTokenBucketDefaultBurst: a client's limiter has a burst of one
// token — the first issue is free, the next waits a full 1/RPS.
func TestTokenBucketDefaultBurst(t *testing.T) {
	c, err := NewClient(Config{BaseURL: "http://market.example.com", RPS: 1})
	if err != nil {
		t.Fatal(err)
	}
	clk := newFakeClock()
	b := c.bucket
	b.now = clk.now
	if wait := b.Reserve(); wait != 0 {
		t.Fatalf("default-burst first reserve: wait %v, want 0", wait)
	}
	if wait := b.Reserve(); wait != time.Second {
		t.Fatalf("default-burst second reserve: wait %v, want 1s", wait)
	}
}

func TestBackoffWindowDoubling(t *testing.T) {
	base, cap := 50*time.Millisecond, 2*time.Second
	// nil rnd returns the full window: the deterministic upper envelope.
	wants := []time.Duration{
		50 * time.Millisecond,
		100 * time.Millisecond,
		200 * time.Millisecond,
		400 * time.Millisecond,
		800 * time.Millisecond,
		1600 * time.Millisecond,
		2 * time.Second, // capped
		2 * time.Second,
	}
	for attempt, want := range wants {
		if got := backoff(base, cap, attempt, nil); got != want {
			t.Fatalf("attempt %d: got %v, want %v", attempt, got, want)
		}
	}
	// Huge attempt counts stay capped (no overflow).
	if got := backoff(base, cap, 100000, nil); got != cap {
		t.Fatalf("attempt 100000: got %v, want %v", got, cap)
	}
}

func TestBackoffFullJitter(t *testing.T) {
	if got := backoff(time.Second, time.Second, 0, func() float64 { return 0 }); got != 0 {
		t.Fatalf("rnd=0: got %v, want 0", got)
	}
	if got := backoff(time.Second, time.Second, 0, func() float64 { return 0.5 }); got != 500*time.Millisecond {
		t.Fatalf("rnd=0.5: got %v, want 500ms", got)
	}
}

func TestBackoffDegenerateInputs(t *testing.T) {
	if got := backoff(0, time.Second, 3, nil); got != 0 {
		t.Fatalf("zero base: got %v, want 0", got)
	}
	// max below base is raised to base.
	if got := backoff(time.Second, time.Millisecond, 0, nil); got != time.Second {
		t.Fatalf("max<base: got %v, want 1s", got)
	}
}
