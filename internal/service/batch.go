package service

import (
	"context"
	"math"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/opq"
)

// DefaultBatchWindow is the accumulation window cmd/sladed enables by
// default: long enough to coalesce a burst of concurrent same-menu
// requests, short enough to be invisible next to network latency.
const DefaultBatchWindow = 2 * time.Millisecond

// DefaultBatchMaxRequests caps one batch when Config.BatchMaxRequests is
// unset. A full batch flushes immediately, so under sustained load the cap
// (not the window) paces flushes and no request waits longer than one
// batch solve.
const DefaultBatchMaxRequests = 256

// batcher coalesces concurrent default-solver decompose traffic that
// shares a (menu, threshold) cache key: one accumulation window, one
// cache lookup, and the flush hands the cached queue to every request
// that entered the batch. Each caller then makes the same
// opq.SolveRunsRange (or opq.SolveInto) call over it that an unbatched
// request makes — so a batched plan is its solo plan by construction, in
// its own ids 0..n-1, and the batcher holds no per-request state: a
// pending batch is a count of requests, not a list of them.
//
// Mechanics: the first request for a key opens a pending batch and arms
// the window timer; followers sharing the key add themselves to its
// count. One caller may enter k requests at once — a batch call enters
// each threshold's members as one weight. The batch flushes when the
// window expires, when the count reaches the size cap, or — the
// double-buffering rule — when the key's previous flush completes with no
// other flush in flight: requests that accumulated while the cache was
// busy are served the moment it frees up, so a saturated service never
// idles waiting for a window to expire, and the window is what it claims
// to be — an upper bound on added latency, paid in full only by sparse
// traffic.
//
// Concurrency contract: enter, wait and join are safe for any number of
// goroutines. A caller whose context is canceled while its batch is still
// pending takes its weight back out without disturbing siblings (the
// DELETE-one-member semantics of batched jobs); once a flush has begun,
// it counts every request still in the batch and the canceled caller
// simply abandons the queue.
type batcher struct {
	svc *Service
	// window is the maximum accumulation time before a flush.
	window time.Duration
	// maxRequests flushes a batch early once this many requests are in it.
	maxRequests int

	mu      sync.Mutex
	pending map[menuThreshold]*pendingBatch
	// inflight counts detached-but-unfinished flushes per key; the last
	// one to finish hands any successor batch straight to a new flush.
	inflight map[menuThreshold]int
}

// Flush reasons, as exported in the slade_batch_flushes_total{reason}
// metric that BatchStats reads.
const (
	// flushReasonWindow: the accumulation window expired.
	flushReasonWindow = "window"
	// flushReasonCap: the batch filled to maxRequests before the window.
	flushReasonCap = "cap"
	// flushReasonDrain: a finished flush handed its successor batch
	// straight to a new flush (the double-buffering rule).
	flushReasonDrain = "drain"
)

// pendingBatch is one cache key's batch until its flush. count is how
// many live requests are in it: it moves under b.mu while the batch is in
// b.pending, and is fixed once a trigger detaches it. done closes after
// the flush wrote q (or err), publishing the queue to every waiter with
// one wakeup sweep.
type pendingBatch struct {
	// key.tbits holds the batch's threshold.
	key   menuThreshold
	bins  core.BinSet
	count int
	timer *time.Timer
	done  chan struct{}
	q     *opq.Queue
	err   error
}

// newBatcher wires a batcher to its owning service.
func newBatcher(svc *Service, window time.Duration, maxRequests int) *batcher {
	if maxRequests <= 0 {
		maxRequests = DefaultBatchMaxRequests
	}
	return &batcher{
		svc:         svc,
		window:      window,
		maxRequests: maxRequests,
		pending:     make(map[menuThreshold]*pendingBatch),
		inflight:    make(map[menuThreshold]int),
	}
}

// join enters k requests at threshold t over bins and waits for the
// queue their flush hands out: enter, then wait.
func (b *batcher) join(ctx context.Context, bins core.BinSet, t float64, k int) (*opq.Queue, error) {
	return b.wait(ctx, b.enter(bins, t, k), k)
}

// enter adds k ≥ 1 requests to the pending batch for the key of (bins,
// t), opening one if needed, and returns that batch for wait. A caller
// with several keys to serve enters them all before waiting on any, so
// they share one window.
func (b *batcher) enter(bins core.BinSet, t float64, k int) *pendingBatch {
	key := menuThreshold{menu: bins.Key(), tbits: math.Float64bits(t)}
	b.mu.Lock()
	pb, ok := b.pending[key]
	if !ok {
		pb = &pendingBatch{key: key, bins: bins, done: make(chan struct{})}
		b.pending[key] = pb
		pb.timer = time.AfterFunc(b.window, func() { b.flushExpired(key, pb) })
	}
	pb.count += k
	b.svc.metrics.batchPending.Add(int64(k))
	if pb.count < b.maxRequests {
		b.mu.Unlock()
		return pb
	}
	// Cap reached: detach now so the next enter opens a fresh batch, and
	// flush without waiting out the window.
	b.detachLocked(pb)
	b.mu.Unlock()
	go b.flush(pb, flushReasonCap)
	return pb
}

// wait blocks until pb's flush hands out the key's queue, or ctx is
// canceled. A cancel takes the k requests entered into pb back out of it
// while it is still pending, so its flush neither counts nor waits for
// them; siblings are untouched. Once the flush has begun the cancel
// still wins, and the queue is simply not used — the job manager's
// cancel semantics.
func (b *batcher) wait(ctx context.Context, pb *pendingBatch, k int) (*opq.Queue, error) {
	select {
	case <-pb.done:
		return pb.q, pb.err
	case <-ctx.Done():
		b.mu.Lock()
		if b.pending[pb.key] == pb {
			pb.count -= k
			b.svc.metrics.batchPending.Add(-int64(k))
		}
		b.mu.Unlock()
		return nil, ctx.Err()
	}
}

// detachLocked removes the batch from the pending map, stops its window
// timer, and registers its flush as in flight. Caller holds b.mu and
// must call flush(pb, ...) after unlocking.
func (b *batcher) detachLocked(pb *pendingBatch) {
	delete(b.pending, pb.key)
	pb.timer.Stop()
	b.inflight[pb.key]++
}

// flushExpired is the window-timer path: it flushes the batch unless the
// size cap (or a drain handoff) already detached it.
func (b *batcher) flushExpired(key menuThreshold, pb *pendingBatch) {
	b.mu.Lock()
	if b.pending[key] != pb {
		b.mu.Unlock()
		return
	}
	b.detachLocked(pb)
	b.mu.Unlock()
	b.flush(pb, flushReasonWindow)
}

// flush fetches the key's cached queue for every live request in the
// batch, and — when it was the key's last in-flight flush — hands any
// batch that accumulated meanwhile straight to the next flush. Exactly
// one flush runs per batch: every trigger detaches the batch from the
// pending map under the lock before calling it, which also fixes its
// count. The lookup is deliberately detached from any one caller's
// context, since the flush serves every sibling.
func (b *batcher) flush(pb *pendingBatch, reason string) {
	// Every live request raised the pending gauge once; this flush
	// retires them (canceled ones retired themselves in wait).
	bm := b.svc.metrics
	bm.batchPending.Add(-int64(pb.count))
	if pb.count > 0 { // otherwise every caller canceled while pending
		bm.batchFlushes[reason].Inc()
		bm.batchFlushSize.Observe(float64(pb.count))
		pb.q, pb.err = b.svc.cache.Get(pb.bins, math.Float64frombits(pb.key.tbits))
		close(pb.done) // one close publishes the queue to every waiter
	}

	// Drain handoff: requests that arrived while this flush was running
	// are ready-made coalesced work — start on them now rather than
	// letting them wait out the rest of their window.
	b.mu.Lock()
	b.inflight[pb.key]--
	if b.inflight[pb.key] > 0 {
		b.mu.Unlock()
		return
	}
	delete(b.inflight, pb.key)
	succ, ok := b.pending[pb.key]
	if !ok {
		b.mu.Unlock()
		return
	}
	b.detachLocked(succ)
	b.mu.Unlock()
	go b.flush(succ, flushReasonDrain)
}

// BatchStats reports the request batcher's effectiveness; served inside
// GET /v1/stats as the "batch" block.
type BatchStats struct {
	// Enabled reports whether batching is configured (BatchWindow > 0).
	Enabled bool `json:"enabled"`
	// WindowMS and MaxRequests echo the configuration.
	WindowMS    float64 `json:"window_ms,omitempty"`
	MaxRequests int     `json:"max_requests,omitempty"`
	// Batches counts flushed batches with at least one live member;
	// BatchedRequests the requests they served.
	Batches         uint64 `json:"batches"`
	BatchedRequests uint64 `json:"batched_requests"`
	// MeanSize is BatchedRequests / Batches — near 1 means the window is
	// too short (or traffic too sparse) for coalescing to bite.
	MeanSize float64 `json:"batch_mean_size"`
	// WindowTimeouts counts batches flushed by the window timer rather
	// than the size cap or a drain handoff; under saturating load this
	// stays near zero — the timer pays out in full only on sparse
	// traffic.
	WindowTimeouts uint64 `json:"batch_window_timeouts"`
}

// stats reads the batcher's counts off its /metrics instruments: a
// flush with a live member counts once under its reason and observes its
// size. Safe for concurrent use.
func (b *batcher) stats() BatchStats {
	bm := b.svc.metrics
	s := BatchStats{
		Enabled:         true,
		WindowMS:        float64(b.window) / float64(time.Millisecond),
		MaxRequests:     b.maxRequests,
		BatchedRequests: uint64(bm.batchFlushSize.Sum()),
		WindowTimeouts:  bm.batchFlushes[flushReasonWindow].Value(),
	}
	for _, c := range bm.batchFlushes {
		s.Batches += c.Value()
	}
	if s.Batches > 0 {
		s.MeanSize = float64(s.BatchedRequests) / float64(s.Batches)
	}
	return s
}
