package resilience

import (
	"errors"
	"testing"
	"time"
)

// The breaker test suite migrated with the breaker from internal/cluster.
// The pin tests (opens-after-threshold, probe single admission, healthy
// never consuming the probe, release reverting it) must keep passing
// verbatim: they encode review-hardened semantics the cluster still
// relies on through this package.

// fakeClock is a hand-advanced clock for breaker cooldown tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1000, 0)} }
func mustState(t *testing.T, b *Breaker, want string) {
	t.Helper()
	if got := b.StateName(); got != want {
		t.Fatalf("state: got %q, want %q", got, want)
	}
}

func TestBreakerOpensAfterThreshold(t *testing.T) {
	clk := newFakeClock()
	b := NewBreaker(3, time.Second, clk.now)
	boom := errors.New("boom")

	for i := 0; i < 2; i++ {
		if !b.Allow() {
			t.Fatalf("closed breaker refused attempt %d", i)
		}
		b.Record(boom)
		mustState(t, b, "ok")
	}
	b.Record(boom) // third consecutive failure
	mustState(t, b, "open")
	if b.Allow() {
		t.Fatal("open breaker admitted a request before cooldown")
	}
	if _, failures, opens, lastErr := b.Snapshot(); failures != 3 || opens != 1 || lastErr != "boom" {
		t.Fatalf("snapshot: failures=%d opens=%d lastErr=%q", failures, opens, lastErr)
	}
}

func TestBreakerProbeSuccessCloses(t *testing.T) {
	clk := newFakeClock()
	b := NewBreaker(1, time.Second, clk.now)
	b.Record(errors.New("x"))
	mustState(t, b, "open")

	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("cooled-down breaker refused the probe")
	}
	mustState(t, b, "probing")
	if b.Allow() {
		t.Fatal("half-open breaker admitted a second concurrent request")
	}
	b.Record(nil)
	mustState(t, b, "ok")
	if !b.Allow() {
		t.Fatal("closed breaker refused traffic after successful probe")
	}
}

func TestBreakerProbeFailureReopens(t *testing.T) {
	clk := newFakeClock()
	b := NewBreaker(1, time.Second, clk.now)
	b.Record(errors.New("x"))
	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("probe refused")
	}
	b.Record(errors.New("still dead"))
	mustState(t, b, "open")
	if b.Allow() {
		t.Fatal("re-opened breaker admitted traffic with a fresh cooldown pending")
	}
	if _, _, opens, _ := b.Snapshot(); opens != 2 {
		t.Fatalf("opens: got %d, want 2", opens)
	}
	// Success after the next probe still recovers fully.
	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("second probe refused")
	}
	b.Record(nil)
	mustState(t, b, "ok")
}

// TestBreakerRecordReportsEachOpenOnce pins the accounting contract the
// cluster and platform breaker-open counters rely on: Record returns true
// exactly on the call that performs an open transition — the threshold-th
// consecutive failure, or a failed probe — and never for a success, a
// below-threshold failure, or a straggler failing against an already-open
// breaker.
func TestBreakerRecordReportsEachOpenOnce(t *testing.T) {
	clk := newFakeClock()
	b := NewBreaker(2, time.Second, clk.now)
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
	if _, _, opens, _ := b.Snapshot(); opens != uint64(reported) || reported != 2 {
		t.Fatalf("Record reported %d opens, breaker counted %d, want 2 each", reported, opens)
	}
}

func TestBreakerSuccessResetsFailureRun(t *testing.T) {
	b := NewBreaker(3, time.Second, newFakeClock().now)
	boom := errors.New("boom")
	b.Record(boom)
	b.Record(boom)
	b.Record(nil) // run broken
	b.Record(boom)
	b.Record(boom)
	mustState(t, b, "ok") // 2 consecutive, threshold 3
}

func TestBreakerHealthyDoesNotConsumeProbe(t *testing.T) {
	clk := newFakeClock()
	b := NewBreaker(1, time.Second, clk.now)
	if !b.Healthy() {
		t.Fatal("closed breaker reported unhealthy")
	}
	b.Record(errors.New("x"))
	if b.Healthy() {
		t.Fatal("open breaker mid-cooldown reported healthy")
	}
	clk.advance(time.Second)
	// Probe-eligible: healthy may be asked any number of times without
	// transitioning the state or consuming the probe admission.
	for i := 0; i < 5; i++ {
		if !b.Healthy() {
			t.Fatalf("probe-eligible breaker reported unhealthy (ask %d)", i)
		}
		mustState(t, b, "open")
	}
	if !b.Allow() {
		t.Fatal("probe refused after healthy checks — a check consumed it")
	}
	mustState(t, b, "probing")
	if b.Healthy() {
		t.Fatal("half-open breaker reported healthy (probe already out)")
	}
}

func TestBreakerReleaseRevertsProbe(t *testing.T) {
	clk := newFakeClock()
	b := NewBreaker(1, time.Second, clk.now)
	b.Record(errors.New("x"))
	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("probe refused")
	}
	mustState(t, b, "probing")
	// The probe's attempt was canceled by the caller: release must return
	// the breaker to open with the cooldown still spent, so the next real
	// dispatch re-probes immediately instead of latching half-open.
	b.Release()
	mustState(t, b, "open")
	if _, failures, opens, _ := b.Snapshot(); failures != 1 || opens != 1 {
		t.Fatalf("release charged the breaker: failures=%d opens=%d", failures, opens)
	}
	if !b.Allow() {
		t.Fatal("released breaker refused the re-probe")
	}
	b.Record(nil)
	mustState(t, b, "ok")
	// On a closed breaker, release is a no-op.
	b.Release()
	mustState(t, b, "ok")
	if !b.Allow() {
		t.Fatal("release broke a closed breaker")
	}
}

func TestBreakerDefaults(t *testing.T) {
	b := NewBreaker(0, 0, nil)
	if b.threshold != DefaultFailureThreshold || b.cooldown != DefaultCooldown {
		t.Fatalf("defaults: threshold=%d cooldown=%v", b.threshold, b.cooldown)
	}
}

// FuzzBreakerCooldown drives a breaker with a fake clock through random
// operation sequences and checks the state-machine invariants the pin
// tests spell out pointwise: an open breaker admits nothing mid-cooldown,
// at most one probe is ever out, and every success closes.
func FuzzBreakerCooldown(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4})
	f.Add([]byte{0, 0, 0, 3, 2, 2, 1, 2})
	f.Add([]byte{0, 0, 0, 4, 2, 0, 3, 3, 2, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		clk := newFakeClock()
		const cooldown = 8 * time.Second
		b := NewBreaker(2, cooldown, clk.now)
		boom := errors.New("boom")
		probeOut := false // model: a half-open probe admission is outstanding
		for i, op := range ops {
			switch op % 5 {
			case 0: // record failure
				b.Record(boom)
				probeOut = false
			case 1: // record success
				b.Record(nil)
				probeOut = false
				if got := b.StateName(); got != "ok" {
					t.Fatalf("op %d: success left state %q", i, got)
				}
			case 2: // allow
				before := b.StateName()
				cooled := b.Healthy()
				got := b.Allow()
				switch before {
				case "ok":
					if !got {
						t.Fatalf("op %d: closed breaker refused", i)
					}
				case "open":
					if got != cooled {
						t.Fatalf("op %d: open breaker allow=%v with cooldown elapsed=%v", i, got, cooled)
					}
					if got {
						if probeOut {
							t.Fatalf("op %d: second probe admitted", i)
						}
						probeOut = true
					}
				case "probing":
					if got {
						t.Fatalf("op %d: half-open breaker admitted a second probe", i)
					}
				}
			case 3: // release
				b.Release()
				if probeOut && b.StateName() != "open" {
					t.Fatalf("op %d: release left state %q", i, b.StateName())
				}
				probeOut = false
			case 4: // advance the clock by an op-derived step
				clk.advance(time.Duration(op) * cooldown / 16)
			}
			// Global invariant: "probing" is observable only while the
			// model says a probe admission is out.
			if b.StateName() == "probing" && !probeOut {
				t.Fatalf("op %d: probing with no admitted probe", i)
			}
		}
	})
}
