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
// cache lookup, then each member is solved over the shared cached queue
// by the same opq.SolveRunsRange call an unbatched request makes — so a
// batched plan is its solo plan by construction.
//
// Mechanics: the first request for a key opens a pending batch and arms
// the window timer; followers sharing the key append themselves. The
// batch flushes when the window expires, when the size cap fills, or —
// the double-buffering rule — when the key's previous flush completes
// with no other flush in flight: requests that accumulated while the
// solver was busy are solved the moment it frees up, so a saturated
// solver never idles waiting for a window to expire, and the window is
// what it claims to be — an upper bound on added latency, paid in full
// only by sparse traffic. Each member's plan addresses only its own ids
// 0..n-1 — no cross-request task leakage.
//
// Concurrency contract: join is safe for any number of goroutines. A
// member whose context is canceled while the batch is still pending
// leaves it without disturbing siblings (the DELETE-one-member semantics
// of batched jobs); once a flush has started, it solves every member it
// collected and the canceled caller simply abandons its result.
type batcher struct {
	svc *Service
	// window is the maximum accumulation time before a flush.
	window time.Duration
	// maxRequests flushes a batch early once this many members joined.
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

// pendingBatch accumulates the members of one cache key until flush.
// done closes after every member's slot is written, publishing all
// results with one wakeup sweep.
type pendingBatch struct {
	// key.tbits holds the batch's threshold.
	key     menuThreshold
	bins    core.BinSet
	members []*batchMember
	timer   *time.Timer
	done    chan struct{}
	err     error
}

// batchMember is one caller parked in a pending batch. The flush
// goroutine writes plan (or the batch-level err) before closing the
// batch's done channel.
type batchMember struct {
	n int
	// gone marks a member whose caller gave up (context canceled) before
	// the flush collected it; flushes skip gone members.
	gone bool

	plan *core.Plan
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

// join enters the caller's instance into the pending batch for its cache
// key (opening one if needed) and blocks until the flush delivers this
// member's plan, or ctx is canceled. The instance must be homogeneous
// with at least one task.
func (b *batcher) join(ctx context.Context, in *core.Instance) (*core.Plan, error) {
	bins, threshold := in.Bins(), in.Threshold(0)
	key := menuThreshold{menu: bins.Key(), tbits: math.Float64bits(threshold)}
	m := &batchMember{n: in.N()}

	b.mu.Lock()
	pb, ok := b.pending[key]
	if !ok {
		pb = &pendingBatch{key: key, bins: bins, done: make(chan struct{})}
		b.pending[key] = pb
		pb.timer = time.AfterFunc(b.window, func() { b.flushExpired(key, pb) })
	}
	pb.members = append(pb.members, m)
	b.svc.metrics.batchPending.Inc()
	if len(pb.members) >= b.maxRequests {
		// Cap reached: detach now so the next join opens a fresh batch,
		// and flush without waiting out the window.
		b.detachLocked(pb)
		b.mu.Unlock()
		go b.flush(pb, flushReasonCap)
	} else {
		b.mu.Unlock()
	}

	select {
	case <-pb.done:
		return m.plan, pb.err
	case <-ctx.Done():
		// Leave the batch; siblings are untouched. If the flush already
		// collected this member its result is simply dropped — the cancel
		// still wins, matching the job manager's cancel semantics.
		b.mu.Lock()
		m.gone = true
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

// flush solves and delivers every live member's plan, and — when it was
// the key's last in-flight flush — hands any batch that accumulated
// meanwhile straight to the next flush. Exactly one flush runs per batch:
// every trigger detaches the batch from the pending map under the lock
// before calling it.
func (b *batcher) flush(pb *pendingBatch, reason string) {
	b.mu.Lock()
	members := make([]*batchMember, 0, len(pb.members))
	for _, m := range pb.members {
		if !m.gone {
			members = append(members, m)
		}
	}
	joined := len(pb.members)
	b.mu.Unlock()
	// Every joined member (gone ones included) incremented the pending
	// gauge exactly once; this flush retires them all.
	bm := b.svc.metrics
	bm.batchPending.Add(-int64(joined))

	if len(members) > 0 { // otherwise every caller canceled while pending
		bm.batchFlushes[reason].Inc()
		bm.batchFlushSize.Observe(float64(len(members)))
		pb.err = b.solve(pb, members)
		close(pb.done) // one close publishes every member's slot
	}

	// Drain handoff: requests that arrived while this flush was solving
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

// solve fetches the key's cached queue once and writes each member's
// plan. It is deliberately detached from any single member's context,
// since the flush serves every sibling.
func (b *batcher) solve(pb *pendingBatch, members []*batchMember) error {
	q, err := b.svc.cache.Get(pb.bins, math.Float64frombits(pb.key.tbits))
	if err != nil {
		return err
	}
	for _, m := range members {
		plan, err := opq.SolveRunsRange(q, 0, m.n)
		if err != nil {
			return err
		}
		m.plan = plan
	}
	return nil
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
