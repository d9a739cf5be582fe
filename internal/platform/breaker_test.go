package platform

import (
	"errors"
	"testing"
	"time"
)

// The pin tests (opens-after-threshold, probe single admission, release
// reverting it) encode review-hardened semantics the client's issue loop
// relies on.

// fakeClock is a hand-advanced clock for breaker cooldown tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1000, 0)} }
func mustState(t *testing.T, b *breaker, want breakerState) {
	t.Helper()
	if got, _, _ := b.Snapshot(); got != want {
		t.Fatalf("state: got %q, want %q", got, want)
	}
}

func TestBreakerOpensAfterThreshold(t *testing.T) {
	clk := newFakeClock()
	b := newBreaker(3, time.Second, clk.now)
	boom := errors.New("boom")

	for i := 0; i < 2; i++ {
		if !b.Allow() {
			t.Fatalf("closed breaker refused attempt %d", i)
		}
		b.Record(boom)
		mustState(t, b, breakerClosed)
	}
	if !b.Record(boom) { // third consecutive failure
		t.Fatal("threshold-th failure did not report the open")
	}
	mustState(t, b, breakerOpen)
	if b.Allow() {
		t.Fatal("open breaker admitted a request before cooldown")
	}
	if _, failures, lastErr := b.Snapshot(); failures != 3 || lastErr != "boom" {
		t.Fatalf("snapshot: failures=%d lastErr=%q", failures, lastErr)
	}
}

func TestBreakerProbeSuccessCloses(t *testing.T) {
	clk := newFakeClock()
	b := newBreaker(1, time.Second, clk.now)
	b.Record(errors.New("x"))
	mustState(t, b, breakerOpen)

	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("cooled-down breaker refused the probe")
	}
	mustState(t, b, breakerHalfOpen)
	if b.Allow() {
		t.Fatal("half-open breaker admitted a second concurrent request")
	}
	b.Record(nil)
	mustState(t, b, breakerClosed)
	if !b.Allow() {
		t.Fatal("closed breaker refused traffic after successful probe")
	}
}

func TestBreakerProbeFailureReopens(t *testing.T) {
	clk := newFakeClock()
	b := newBreaker(1, time.Second, clk.now)
	b.Record(errors.New("x"))
	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("probe refused")
	}
	if !b.Record(errors.New("still dead")) {
		t.Fatal("failed probe did not report the re-open")
	}
	mustState(t, b, breakerOpen)
	if b.Allow() {
		t.Fatal("re-opened breaker admitted traffic with a fresh cooldown pending")
	}
	// Success after the next probe still recovers fully.
	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("second probe refused")
	}
	b.Record(nil)
	mustState(t, b, breakerClosed)
}

// TestBreakerRecordReportsEachOpenOnce pins the accounting contract the
// slade_platform_breaker_opens_total counter relies on: Record returns
// true exactly on the call that performs an open transition — the
// threshold-th consecutive failure, or a failed probe — and never for a
// success, a below-threshold failure, or a straggler failing against an
// already-open breaker.
func TestBreakerRecordReportsEachOpenOnce(t *testing.T) {
	clk := newFakeClock()
	b := newBreaker(2, time.Second, clk.now)
	boom := errors.New("boom")
	reported := 0
	step := func(name string, err error, want bool) {
		t.Helper()
		got := b.Record(err)
		if got != want {
			t.Fatalf("%s: Record reported opened=%v, want %v", name, got, want)
		}
		if got {
			reported++
		}
	}
	step("first failure", boom, false)
	step("threshold-th failure", boom, true)
	step("straggler against the open breaker", boom, false)
	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("probe refused")
	}
	step("failed probe", boom, true)
	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("second probe refused")
	}
	step("successful probe", nil, false)
	step("fresh run, below threshold", boom, false)
	if reported != 2 {
		t.Fatalf("Record reported %d opens, want 2", reported)
	}
}

func TestBreakerSuccessResetsFailureRun(t *testing.T) {
	b := newBreaker(3, time.Second, newFakeClock().now)
	boom := errors.New("boom")
	b.Record(boom)
	b.Record(boom)
	b.Record(nil) // run broken
	b.Record(boom)
	b.Record(boom)
	mustState(t, b, breakerClosed) // 2 consecutive, threshold 3
}

func TestBreakerReleaseRevertsProbe(t *testing.T) {
	clk := newFakeClock()
	b := newBreaker(1, time.Second, clk.now)
	b.Record(errors.New("x"))
	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("probe refused")
	}
	mustState(t, b, breakerHalfOpen)
	// The probe's attempt was canceled by the caller: release must return
	// the breaker to open with the cooldown still spent, so the next real
	// issue re-probes immediately instead of latching half-open.
	b.Release()
	mustState(t, b, breakerOpen)
	if _, failures, _ := b.Snapshot(); failures != 1 {
		t.Fatalf("release charged the breaker: failures=%d", failures)
	}
	if !b.Allow() {
		t.Fatal("released breaker refused the re-probe")
	}
	b.Record(nil)
	mustState(t, b, breakerClosed)
	// On a closed breaker, release is a no-op.
	b.Release()
	mustState(t, b, breakerClosed)
	if !b.Allow() {
		t.Fatal("release broke a closed breaker")
	}
}

// TestBreakerDefaults: a client configured with no breaker knobs gets
// the default threshold and the fixed cooldown, and starts closed.
func TestBreakerDefaults(t *testing.T) {
	c, err := NewClient(Config{BaseURL: "http://market.example.com"})
	if err != nil {
		t.Fatal(err)
	}
	if b := c.breaker; b.threshold != defaultFailureThreshold || b.cooldown != breakerCooldown {
		t.Fatalf("defaults: threshold=%d cooldown=%v", b.threshold, b.cooldown)
	}
	mustState(t, c.breaker, breakerClosed)
}

// FuzzBreakerCooldown drives a breaker with a fake clock through random
// operation sequences and checks the state-machine invariants the pin
// tests spell out pointwise: an open breaker admits nothing mid-cooldown,
// at most one probe is ever out, and every success closes. The cooldown
// oracle is the model's own record of when Record reported the last open.
func FuzzBreakerCooldown(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4})
	f.Add([]byte{0, 0, 0, 3, 2, 2, 1, 2})
	f.Add([]byte{0, 0, 0, 4, 2, 0, 3, 3, 2, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		clk := newFakeClock()
		const cooldown = 8 * time.Second
		b := newBreaker(2, cooldown, clk.now)
		boom := errors.New("boom")
		probeOut := false      // model: a half-open probe admission is outstanding
		var openedAt time.Time // model: when Record last reported an open
		state := func() breakerState { s, _, _ := b.Snapshot(); return s }
		for i, op := range ops {
			switch op % 5 {
			case 0: // record failure
				if b.Record(boom) {
					openedAt = clk.t
				}
				probeOut = false
			case 1: // record success
				b.Record(nil)
				probeOut = false
				if got := state(); got != breakerClosed {
					t.Fatalf("op %d: success left state %q", i, got)
				}
			case 2: // allow
				before := state()
				cooled := clk.t.Sub(openedAt) >= cooldown
				got := b.Allow()
				switch before {
				case breakerClosed:
					if !got {
						t.Fatalf("op %d: closed breaker refused", i)
					}
				case breakerOpen:
					if got != cooled {
						t.Fatalf("op %d: open breaker allow=%v with cooldown elapsed=%v", i, got, cooled)
					}
					if got {
						if probeOut {
							t.Fatalf("op %d: second probe admitted", i)
						}
						probeOut = true
					}
				case breakerHalfOpen:
					if got {
						t.Fatalf("op %d: half-open breaker admitted a second probe", i)
					}
				}
			case 3: // release
				b.Release()
				if probeOut && state() != breakerOpen {
					t.Fatalf("op %d: release left state %q", i, state())
				}
				probeOut = false
			case 4: // advance the clock by an op-derived step
				clk.advance(time.Duration(op) * cooldown / 16)
			}
			// Global invariant: "probing" is observable only while the
			// model says a probe admission is out.
			if state() == breakerHalfOpen && !probeOut {
				t.Fatalf("op %d: probing with no admitted probe", i)
			}
		}
	})
}
