// Package obs is the zero-dependency observability substrate of the
// serving stack: atomic counters and gauges, lock-free log-scale latency
// histograms with quantile estimates, and a small registry that renders
// everything as Prometheus text exposition format (see registry.go) and
// validates it (lint.go).
//
// Design constraints, in order:
//
//   - Hot-path cost. Observe on a Histogram is a bounded float log, two
//     atomic adds and one CAS loop — no locks, no allocations — so the
//     cached-solve path can be instrumented without moving its committed
//     allocs/op budget.
//   - Mergeability. Histograms with identical bucket layouts merge by
//     plain addition, which is associative and commutative; shard-local
//     histograms can therefore be combined into cluster views later
//     without resampling.
//   - No dependencies. The package hand-rolls the exposition format
//     instead of importing a Prometheus client; the in-repo linter keeps
//     the hand-rolled output honest in CI.
package obs

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing counter. The zero value is ready
// to use. Safe for concurrent use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an integer value that can go up and down. The zero value is
// ready to use. Safe for concurrent use.
type Gauge struct {
	v atomic.Int64
}

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Add adds d (which may be negative).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// atomicFloat is a float64 accumulated with a CAS loop on its bit
// pattern — the lock-free sum behind Histogram.
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (f *atomicFloat) load() float64 { return math.Float64frombits(f.bits.Load()) }

// Histogram is a fixed-layout exponential-bucket histogram: bucket i
// covers (bounds[i-1], bounds[i]] with bounds[i] = base·growthⁱ, plus a
// final +Inf overflow bucket. The layout is fixed at construction, which
// is what makes two histograms mergeable and keeps Observe lock-free:
// one logarithm to find the bucket, one atomic add per bucket, a CAS
// loop for the sum. Safe for concurrent use.
type Histogram struct {
	base     float64
	growth   float64
	invLnG   float64 // 1 / ln(growth), precomputed for Observe
	bounds   []float64
	counts   []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	observed atomic.Uint64
	sum      atomicFloat
}

// Default latency layout: 10µs .. ~10.7min in 27 powers of two. The
// ratio between adjacent bounds caps the relative quantile-estimate
// error at the growth factor (2x), which is plenty for p95-style
// alerting while keeping the per-histogram footprint under 300 bytes.
const (
	DefaultLatencyBase    = 10e-6
	DefaultLatencyGrowth  = 2
	DefaultLatencyBuckets = 27
)

// NewHistogram builds a histogram with buckets (-inf, base],
// (base, base·growth], ... plus a +Inf overflow bucket, for a total of
// buckets counters. Panics on a non-positive base, growth <= 1, or
// buckets < 2 — layouts are static configuration, not runtime input.
func NewHistogram(base, growth float64, buckets int) *Histogram {
	if base <= 0 || growth <= 1 || buckets < 2 {
		panic(fmt.Sprintf("obs: invalid histogram layout (base=%v growth=%v buckets=%d)", base, growth, buckets))
	}
	bounds := make([]float64, buckets-1)
	b := base
	for i := range bounds {
		bounds[i] = b
		b *= growth
	}
	return &Histogram{
		base:   base,
		growth: growth,
		invLnG: 1 / math.Log(growth),
		bounds: bounds,
		counts: make([]atomic.Uint64, buckets),
	}
}

// NewLatencyHistogram returns a histogram with the default latency
// layout (seconds, 10µs to ~10 minutes).
func NewLatencyHistogram() *Histogram {
	return NewHistogram(DefaultLatencyBase, DefaultLatencyGrowth, DefaultLatencyBuckets)
}

// Observe records one value. Non-finite and negative values land in the
// first bucket (they still count, so totals stay consistent with Count).
func (h *Histogram) Observe(v float64) {
	h.counts[h.bucket(v)].Add(1)
	h.observed.Add(1)
	if v > 0 && !math.IsInf(v, 1) && !math.IsNaN(v) {
		h.sum.add(v)
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// ObserveSince records the seconds elapsed since start.
func (h *Histogram) ObserveSince(start time.Time) { h.ObserveDuration(time.Since(start)) }

// bucket maps a value to its bucket index. bounds are exact powers of
// the growth factor, so the logarithmic guess is corrected by at most
// one step of linear search against the actual bounds — float error can
// never misfile an observation across a bucket boundary.
func (h *Histogram) bucket(v float64) int {
	if !(v > h.base) { // also catches NaN and negatives
		return 0
	}
	idx := int(math.Ceil(math.Log(v/h.base) * h.invLnG))
	if idx < 0 {
		idx = 0
	}
	if idx > len(h.bounds) {
		idx = len(h.bounds)
	}
	for idx > 0 && v <= h.bounds[idx-1] {
		idx--
	}
	for idx < len(h.bounds) && v > h.bounds[idx] {
		idx++
	}
	return idx
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.observed.Load() }

// Sum returns the sum of all positive finite observations.
func (h *Histogram) Sum() float64 { return h.sum.load() }

// Merge adds o's observations into h. The two histograms must share an
// identical bucket layout; merging is plain addition, so it is
// associative and commutative (the property the cluster roll-up relies
// on, pinned by TestHistogramMergeAssociative).
func (h *Histogram) Merge(o *Histogram) error {
	if h.base != o.base || h.growth != o.growth || len(h.counts) != len(o.counts) {
		return fmt.Errorf("obs: merging histograms with different layouts (base %v/%v growth %v/%v buckets %d/%d)",
			h.base, o.base, h.growth, o.growth, len(h.counts), len(o.counts))
	}
	for i := range h.counts {
		h.counts[i].Add(o.counts[i].Load())
	}
	h.observed.Add(o.observed.Load())
	h.sum.add(o.sum.load())
	return nil
}

// Snapshot returns a point-in-time copy of the histogram. Buckets are
// read without a global lock, so a snapshot taken mid-Observe may be off
// by the in-flight observation — monitoring-grade consistency, by design.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds:  h.bounds, // immutable after construction; safe to share
		Buckets: make([]uint64, len(h.counts)),
		Count:   h.observed.Load(),
		Sum:     h.sum.load(),
	}
	for i := range h.counts {
		s.Buckets[i] = h.counts[i].Load()
	}
	return s
}

// HistogramSnapshot is an immutable copy of a histogram's state.
type HistogramSnapshot struct {
	// Bounds are the finite upper bounds; Buckets has one extra entry,
	// the +Inf overflow bucket. Buckets are per-bucket counts, NOT
	// cumulative (the exposition renderer accumulates).
	Bounds  []float64
	Buckets []uint64
	Count   uint64
	Sum     float64
}

// Add folds o's observations into s and returns the combined snapshot.
// An empty snapshot (no buckets) adopts o's layout; otherwise the two
// must have the same bucket count, and a mismatched o is ignored —
// snapshot folding is a best-effort aggregation step, not a checked
// pipeline stage like Histogram.Merge.
func (s HistogramSnapshot) Add(o HistogramSnapshot) HistogramSnapshot {
	if len(s.Buckets) == 0 {
		return o
	}
	if len(o.Buckets) != len(s.Buckets) {
		return s
	}
	out := HistogramSnapshot{
		Bounds:  s.Bounds,
		Buckets: make([]uint64, len(s.Buckets)),
		Count:   s.Count + o.Count,
		Sum:     s.Sum + o.Sum,
	}
	for i := range out.Buckets {
		out.Buckets[i] = s.Buckets[i] + o.Buckets[i]
	}
	return out
}

// Sub returns s minus baseline — the observations recorded between two
// snapshots of the same histogram, the primitive behind windowed views
// of a cumulative histogram (e.g. "queue wait over the last interval").
// An empty baseline (no buckets) returns s unchanged; a baseline with a
// different bucket count is ignored, like HistogramSnapshot.Add. All
// fields subtract saturating at zero: snapshots are not atomic across
// buckets, so a racing Observe can make a single bucket of an older
// snapshot read ahead of a newer one, and a clamped zero beats a wrapped
// uint64.
func (s HistogramSnapshot) Sub(baseline HistogramSnapshot) HistogramSnapshot {
	if len(baseline.Buckets) == 0 {
		return s
	}
	if len(baseline.Buckets) != len(s.Buckets) {
		return s
	}
	out := HistogramSnapshot{
		Bounds:  s.Bounds,
		Buckets: make([]uint64, len(s.Buckets)),
		Count:   satSub(s.Count, baseline.Count),
		Sum:     math.Max(0, s.Sum-baseline.Sum),
	}
	for i := range out.Buckets {
		out.Buckets[i] = satSub(s.Buckets[i], baseline.Buckets[i])
	}
	return out
}

// satSub is a-b clamped at zero.
func satSub(a, b uint64) uint64 {
	if b > a {
		return 0
	}
	return a - b
}

// Total returns the observation count derived from the buckets
// themselves; quantile math uses it so a racing Observe between the
// bucket reads and the Count read cannot skew a rank past the end.
func (s HistogramSnapshot) Total() uint64 {
	var t uint64
	for _, c := range s.Buckets {
		t += c
	}
	return t
}

// Mean returns Sum/Count (0 when empty).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Quantile estimates the q-quantile (0 < q <= 1) by linear
// interpolation within the bucket holding the rank — the same estimator
// Prometheus's histogram_quantile uses. The estimate is bounded by the
// rank bucket's bounds, so the relative error is capped by the growth
// factor. Values past the last finite bound report that bound (there is
// nothing to interpolate against in the overflow bucket). Returns 0 on
// an empty histogram.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	total := s.Total()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum float64
	for i, c := range s.Buckets {
		prev := cum
		cum += float64(c)
		if cum < rank || c == 0 {
			continue
		}
		if i >= len(s.Bounds) {
			// Overflow bucket: the last finite bound is the most honest
			// answer available.
			return s.Bounds[len(s.Bounds)-1]
		}
		lower := 0.0
		if i > 0 {
			lower = s.Bounds[i-1]
		}
		upper := s.Bounds[i]
		return lower + (upper-lower)*(rank-prev)/float64(c)
	}
	return s.Bounds[len(s.Bounds)-1]
}

// LatencySummary condenses a latency histogram of seconds into the one
// JSON shape /v1/stats uses for every latency it reports.
type LatencySummary struct {
	// Count is the number of observations behind the summary.
	Count uint64 `json:"count"`
	// MeanMS is the arithmetic mean; P50/P95/P99 are interpolated
	// quantile estimates (error bounded by the histogram's 2x bucket
	// growth). All in milliseconds.
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P95MS  float64 `json:"p95_ms"`
	P99MS  float64 `json:"p99_ms"`
}

// Summary converts a snapshot of seconds to its millisecond summary.
func (s HistogramSnapshot) Summary() LatencySummary {
	return LatencySummary{
		Count:  s.Count,
		MeanMS: s.Mean() * 1e3,
		P50MS:  s.Quantile(0.50) * 1e3,
		P95MS:  s.Quantile(0.95) * 1e3,
		P99MS:  s.Quantile(0.99) * 1e3,
	}
}
