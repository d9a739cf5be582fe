package obs

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

func TestCounterAndGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	var g Gauge
	g.Inc()
	g.Add(10)
	g.Dec()
	if got := g.Value(); got != 10 {
		t.Fatalf("gauge = %d, want 10", got)
	}
	g.Set(-3)
	if got := g.Value(); got != -3 {
		t.Fatalf("gauge after Set = %d, want -3", got)
	}
}

// TestConcurrentStress hammers a counter, gauge and histogram from many
// goroutines; run under -race this is the package's data-race canary,
// and the final totals check that no observation is lost.
func TestConcurrentStress(t *testing.T) {
	const goroutines = 16
	const perG = 2000
	var c Counter
	var g Gauge
	h := NewLatencyHistogram()
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for j := 0; j < perG; j++ {
				c.Inc()
				g.Inc()
				h.Observe(math.Exp(rng.Float64()*12 - 10)) // ~45µs..7.4s
				g.Dec()
			}
		}(int64(i))
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
	if got := g.Value(); got != 0 {
		t.Fatalf("gauge = %d, want 0", got)
	}
	if got := h.Count(); got != goroutines*perG {
		t.Fatalf("histogram count = %d, want %d", got, goroutines*perG)
	}
	if got := h.Snapshot().Total(); got != goroutines*perG {
		t.Fatalf("bucket total = %d, want %d", got, goroutines*perG)
	}
}

func TestHistogramBucketing(t *testing.T) {
	h := NewHistogram(1, 2, 5) // bounds 1,2,4,8 + +Inf
	cases := []struct {
		v    float64
		want int
	}{
		{-1, 0}, {0, 0}, {math.NaN(), 0}, {0.5, 0}, {1, 0},
		{1.0001, 1}, {2, 1}, {2.5, 2}, {4, 2}, {7.9, 3}, {8, 3},
		{8.1, 4}, {1e9, 4}, {math.Inf(1), 4},
	}
	for _, c := range cases {
		if got := h.bucket(c.v); got != c.want {
			t.Errorf("bucket(%v) = %d, want %d", c.v, got, c.want)
		}
	}
	h.Observe(3)
	h.ObserveDuration(1500 * time.Millisecond)
	h.ObserveSince(time.Now().Add(-6 * time.Second))
	s := h.Snapshot()
	if s.Count != 3 || s.Total() != 3 {
		t.Fatalf("count = %d / total = %d, want 3/3", s.Count, s.Total())
	}
	if s.Sum < 10.4 || s.Sum > 10.6 {
		t.Fatalf("sum = %v, want ~10.5", s.Sum)
	}
	if mean := s.Mean(); mean < 3.4 || mean > 3.6 {
		t.Fatalf("mean = %v, want ~3.5", mean)
	}
	if (HistogramSnapshot{}).Mean() != 0 {
		t.Fatalf("empty mean should be 0")
	}
	want := LatencySummary{Count: 3, MeanMS: s.Mean() * 1e3, P50MS: s.Quantile(0.5) * 1e3,
		P95MS: s.Quantile(0.95) * 1e3, P99MS: s.Quantile(0.99) * 1e3}
	if got := s.Summary(); got != want {
		t.Fatalf("summary = %+v, want the snapshot's seconds in ms %+v", got, want)
	}
}

// TestHistogramExactPowerBoundaries pins the (lower, upper] bucket
// convention at exact bound values, where the float log is most likely
// to go wrong without the correction step.
func TestHistogramExactPowerBoundaries(t *testing.T) {
	h := NewHistogram(10e-6, 2, 27)
	for i, b := range h.bounds {
		if got := h.bucket(b); got != i {
			t.Errorf("bucket(bound[%d]=%v) = %d, want %d", i, b, got, i)
		}
		if got := h.bucket(b * 1.0000001); got != i+1 {
			t.Errorf("bucket(just above bound[%d]) = %d, want %d", i, got, i+1)
		}
	}
}

// TestQuantileOracle checks the quantile estimate against an exact
// oracle on randomized samples: the estimate must land in the same or an
// adjacent bucket as the true quantile (the structural error bound of an
// exponential-bucket histogram), and estimates must be monotone in q.
// TestSnapshotSub: Sub yields the observations between two snapshots of
// one histogram — the primitive the service's windowed admission signal
// is built on — and degrades safely on empty or mismatched baselines.
func TestSnapshotSub(t *testing.T) {
	h := NewHistogram(0.001, 2, 10)
	h.Observe(0.004)
	h.Observe(0.004)
	base := h.Snapshot()
	h.Observe(0.1)
	h.Observe(0.2)
	cur := h.Snapshot()

	delta := cur.Sub(base)
	if delta.Count != 2 {
		t.Fatalf("delta count = %d, want 2", delta.Count)
	}
	if got, want := delta.Sum, 0.3; math.Abs(got-want) > 1e-12 {
		t.Fatalf("delta sum = %v, want %v", got, want)
	}
	if q := delta.Quantile(0.95); q <= 0.05 {
		t.Fatalf("delta p95 = %v, want > 0.05 (old observations must not dilute the window)", q)
	}
	// The full snapshot minus the delta's worth of buckets re-adds to cur.
	if back := delta.Add(base); back.Total() != cur.Total() {
		t.Fatalf("base + delta total = %d, want %d", back.Total(), cur.Total())
	}

	// Empty baseline: identity.
	if got := cur.Sub(HistogramSnapshot{}); got.Total() != cur.Total() {
		t.Fatalf("sub of empty baseline changed the snapshot")
	}
	// Mismatched layout: ignored, like Add.
	other := NewHistogram(0.001, 2, 5).Snapshot()
	if got := cur.Sub(other); got.Total() != cur.Total() {
		t.Fatalf("sub of mismatched baseline was not ignored")
	}
	// A baseline racing ahead of cur (torn snapshots) clamps at zero
	// instead of wrapping.
	h.Observe(0.004)
	ahead := h.Snapshot()
	under := cur.Sub(ahead)
	for i, b := range under.Buckets {
		if b > cur.Buckets[i] {
			t.Fatalf("bucket %d wrapped: %d", i, b)
		}
	}
	if under.Sum < 0 {
		t.Fatalf("sum went negative: %v", under.Sum)
	}
}

func TestQuantileOracle(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := NewLatencyHistogram()
		n := 2000 + rng.Intn(3000)
		samples := make([]float64, n)
		for i := range samples {
			var v float64
			switch rng.Intn(3) {
			case 0: // log-uniform across the whole range
				v = math.Exp(rng.Float64()*16 - 11)
			case 1: // exponential, fast-path shaped
				v = rng.ExpFloat64() * 0.002
			default: // heavy tail
				v = rng.ExpFloat64() * rng.ExpFloat64() * 0.5
			}
			samples[i] = v
			h.Observe(v)
		}
		sort.Float64s(samples)
		snap := h.Snapshot()
		prev := 0.0
		for _, q := range []float64{0.1, 0.25, 0.5, 0.9, 0.95, 0.99, 1} {
			exact := samples[min(n-1, int(math.Ceil(q*float64(n)))-1)]
			est := snap.Quantile(q)
			if est < prev {
				t.Fatalf("seed %d: quantile not monotone at q=%v: %v < %v", seed, q, est, prev)
			}
			prev = est
			be, bx := h.bucket(est), h.bucket(exact)
			if d := be - bx; d < -1 || d > 1 {
				t.Fatalf("seed %d q=%v: estimate %v (bucket %d) vs exact %v (bucket %d): off by more than one bucket",
					seed, q, est, be, exact, bx)
			}
		}
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	h := NewHistogram(1, 2, 4) // bounds 1,2,4 + +Inf
	if got := h.Snapshot().Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %v, want 0", got)
	}
	h.Observe(1e9) // overflow bucket only
	if got := h.Snapshot().Quantile(0.5); got != 4 {
		t.Fatalf("overflow-only quantile = %v, want last finite bound 4", got)
	}
	h2 := NewHistogram(1, 2, 4)
	for i := 0; i < 100; i++ {
		h2.Observe(1.5)
	}
	s := h2.Snapshot()
	if q := s.Quantile(0.5); q <= 1 || q > 2 {
		t.Fatalf("interpolated quantile %v outside bucket (1,2]", q)
	}
	if lo, hi := s.Quantile(-1), s.Quantile(2); lo > hi {
		t.Fatalf("clamped quantiles inverted: %v > %v", lo, hi)
	}
}

func TestNewHistogramPanicsOnBadLayout(t *testing.T) {
	for _, f := range []func(){
		func() { NewHistogram(0, 2, 8) },
		func() { NewHistogram(1, 1, 8) },
		func() { NewHistogram(1, 2, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic on invalid layout")
				}
			}()
			f()
		}()
	}
}
