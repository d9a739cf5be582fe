package service

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/stream"
)

// This file is the incremental-ingest API: a stream session wraps a
// stream.Planner so a client can open a (menu, threshold) stream, append
// task arrivals as they happen — each append plans every full OPQ1 block
// the buffer now holds through the cached queue — and flush once at the
// end for the remainder. The merged plan costs exactly what a one-shot
// solve of the whole arrival sequence would (stream.Planner's guarantee),
// and stays queryable until the session is deleted or the result TTL
// reaps it via the service's janitor.

// ErrUnknownStream tags lookups of stream ids that were never opened or
// have been deleted/expired; the HTTP layer maps it to 404.
var ErrUnknownStream = errors.New("service: unknown stream")

// errStreamFlushed tags mutations of a session that has already been
// flushed; the HTTP layer maps it to 409.
var errStreamFlushed = errors.New("service: stream already flushed")

// maxStreamTasks bounds the tasks one session holds over all its
// appends: seen, the planner's buffer and the emitted plans grow with
// them, and a zero result TTL never reaps the session. A var so tests
// can shrink it.
var maxStreamTasks = MaxTasks

// errStreamFull tags an append that would take a session past
// maxStreamTasks; the HTTP layer maps it to 400.
var errStreamFull = errors.New("too many tasks")

// Stream session states.
const (
	StreamOpen    = "open"
	StreamFlushed = "flushed"
)

// streamSession is one incremental planning session. The planner is not
// concurrency-safe, so every mutation holds mu; lastNS is atomic so the
// TTL sweep never waits behind an in-flight solve.
type streamSession struct {
	id      string
	bins    core.BinSet
	created time.Time
	// lastNS is the UnixNano of the last mutation (open/append/flush) —
	// the idle clock the TTL expires sessions on.
	lastNS atomic.Int64

	mu      sync.Mutex
	planner *stream.Planner
	// seen rejects duplicate task ids across the whole stream (the block
	// expansion places ids positionally; a duplicate would corrupt a bin).
	seen map[int]struct{}
	// plans collects every emitted partial plan; flush merges them (run-
	// backed merge, no expansion) into merged.
	plans    []*core.Plan
	merged   *core.Plan
	summary  *core.Summary
	appends  int
	finished time.Time
	flushed  bool
}

func (ss *streamSession) touch() { ss.lastNS.Store(time.Now().UnixNano()) }

// StreamStatus is the externally visible session snapshot.
type StreamStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// BlockSize is the OPQ1 block granularity plans are emitted at.
	BlockSize int `json:"block_size"`
	// Pending counts buffered tasks awaiting a full block; EmittedTasks
	// and EmittedCost cover everything already planned.
	Pending      int     `json:"pending"`
	EmittedTasks int     `json:"emitted_tasks"`
	EmittedCost  float64 `json:"emitted_cost"`
	// Appends counts POST .../tasks calls accepted so far.
	Appends      int       `json:"appends"`
	Created      time.Time `json:"created"`
	LastActivity time.Time `json:"last_activity"`
	Finished     time.Time `json:"finished,omitzero"`
	// Summary describes the merged plan of a flushed session.
	Summary *core.Summary `json:"summary,omitempty"`
}

// statusLocked snapshots the session; caller holds ss.mu.
func (ss *streamSession) statusLocked() StreamStatus {
	st := StreamStatus{
		ID:           ss.id,
		State:        StreamOpen,
		BlockSize:    ss.planner.BlockSize(),
		Pending:      ss.planner.Pending(),
		EmittedTasks: ss.planner.EmittedTasks(),
		EmittedCost:  ss.planner.EmittedCost(),
		Appends:      ss.appends,
		Created:      ss.created,
		LastActivity: time.Unix(0, ss.lastNS.Load()),
		Summary:      ss.summary,
	}
	if ss.flushed {
		st.State = StreamFlushed
		st.Finished = ss.finished
	}
	return st
}

// appendLocked plans a batch of arrivals into ss and counts them; caller
// holds ss.mu.
func (sm *StreamManager) appendLocked(ss *streamSession, tasks []int) error {
	if ss.flushed {
		return errStreamFlushed
	}
	if len(tasks) > maxStreamTasks-len(ss.seen) {
		return fmt.Errorf("%w: a stream may hold at most %d", errStreamFull, maxStreamTasks)
	}
	batch := make(map[int]struct{}, len(tasks))
	for _, id := range tasks {
		if _, dup := ss.seen[id]; dup {
			return fmt.Errorf("%w %d in stream", errDuplicateTask, id)
		}
		if _, dup := batch[id]; dup {
			return fmt.Errorf("%w %d in batch", errDuplicateTask, id)
		}
		batch[id] = struct{}{}
	}
	plan, err := ss.planner.Add(tasks...)
	if err != nil {
		return err
	}
	for _, id := range tasks {
		ss.seen[id] = struct{}{}
	}
	if plan.NumUses() > 0 {
		ss.plans = append(ss.plans, plan)
	}
	ss.appends++
	ss.touch()
	sm.tasks.Add(uint64(len(tasks)))
	return nil
}

// flushLocked plans ss's remainder, seals the merged result and counts
// the flush; caller holds ss.mu.
func (sm *StreamManager) flushLocked(ss *streamSession) error {
	if ss.flushed {
		return errStreamFlushed
	}
	tail, err := ss.planner.Flush()
	if err != nil {
		return err
	}
	if tail.NumUses() > 0 {
		ss.plans = append(ss.plans, tail)
	}
	// The merged plan stays O(runs) and streams through EncodeUses.
	ss.merged = core.MergePlans(ss.plans...)
	ss.plans = nil
	sum, err := ss.merged.Summarize(ss.bins)
	if err != nil {
		return fmt.Errorf("%w: %v", errSummarize, err)
	}
	ss.summary = &sum
	ss.flushed = true
	ss.finished = time.Now()
	ss.touch()
	sm.flushes.Inc()
	return nil
}

// StreamManager owns the open sessions and their counters. All exported
// behaviour is via the HTTP handlers; sessions expire on the service
// janitor's TTL sweep and lazily on access, exactly like terminal jobs.
type StreamManager struct {
	svc *Service

	// The slade_stream_* counters, registered by newStreamManager and
	// written only by the manager; the expired one is the table's.
	opened, tasks, flushes *obs.Counter

	mu sync.Mutex
	// sessions is the session table. A session's expiry clock is its
	// lastNS, so the result TTL reaps it this long after its last
	// mutation, idle (open) or finished (flushed); 0 keeps it until
	// DELETE.
	sessions residents[*streamSession]
}

func newStreamManager(svc *Service, ttl time.Duration) *StreamManager {
	reg := svc.metrics.reg
	sm := &StreamManager{
		svc:     svc,
		opened:  reg.Counter("slade_stream_sessions_opened_total", "Incremental-ingest stream sessions opened."),
		tasks:   reg.Counter("slade_stream_tasks_total", "Tasks appended to stream sessions."),
		flushes: reg.Counter("slade_stream_flushes_total", "Stream session flushes."),
	}
	sm.sessions = newResidents("stream", ttl, reg.Counter("slade_stream_sessions_expired_total", "Stream sessions reaped by the result TTL."),
		func(ss *streamSession) (int64, bool) { return ss.lastNS.Load(), true })
	reg.Func("slade_stream_sessions_active", "Incremental-ingest stream sessions currently resident.", obs.TypeGauge,
		func() float64 { return float64(sm.stats().Active) })
	return sm
}

// open builds a session around the cached queue for (bins, threshold)
// and returns its first status.
func (sm *StreamManager) open(bins core.BinSet, threshold float64) (StreamStatus, error) {
	q, err := sm.svc.cache.Get(bins, threshold)
	if err != nil {
		return StreamStatus{}, err
	}
	planner, err := stream.NewPlannerWithQueue(q)
	if err != nil {
		return StreamStatus{}, err
	}
	ss := &streamSession{
		bins:    bins,
		created: time.Now(),
		planner: planner,
		seen:    make(map[int]struct{}),
	}
	ss.touch()
	sm.mu.Lock()
	ss.id = sm.sessions.mint()
	st := ss.statusLocked() // no other goroutine can reach ss yet
	sm.sessions.put(ss.id, ss)
	sm.mu.Unlock()
	sm.opened.Inc()
	return st, nil
}

// do resolves id, applying lazy TTL expiry first, runs op (when non-nil)
// on the session under its lock, and returns the session's status and
// merged plan (nil until flushed) from that same lock hold, as
// JobManager.snapshot does for jobs.
func (sm *StreamManager) do(id string, op func(*streamSession) error) (StreamStatus, *core.Plan, error) {
	sm.mu.Lock()
	ss, ok, _ := sm.sessions.lookup(id, time.Now())
	sm.mu.Unlock()
	if !ok {
		return StreamStatus{}, nil, fmt.Errorf("%w %q", ErrUnknownStream, id)
	}
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if op != nil {
		if err := op(ss); err != nil {
			return StreamStatus{}, nil, err
		}
	}
	return ss.statusLocked(), ss.merged, nil
}

// remove deletes a session (DELETE /v1/streams/{id}). A session idled
// past the TTL is expired, as do expires it, and is not found.
func (sm *StreamManager) remove(id string) error {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	if _, ok, _ := sm.sessions.lookup(id, time.Now()); !ok {
		return fmt.Errorf("%w %q", ErrUnknownStream, id)
	}
	delete(sm.sessions.byID, id)
	return nil
}

// sweep reaps the expired sessions; the service's janitor calls it on its
// tick.
func (sm *StreamManager) sweep(now time.Time) {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	sm.sessions.sweep(now)
}

// StreamStats counts stream sessions for /v1/stats.
type StreamStats struct {
	// Opened counts sessions ever opened; Active is the resident count.
	Opened uint64 `json:"opened"`
	Active int    `json:"active"`
	// Flushed counts finalized sessions; Expired counts TTL reaps.
	Flushed uint64 `json:"flushed"`
	Expired uint64 `json:"expired"`
	// TasksAppended counts tasks accepted across every session.
	TasksAppended uint64 `json:"tasks_appended"`
}

// stats reads the counts off the manager's instruments; Active is the
// resident count. Safe for concurrent use.
func (sm *StreamManager) stats() StreamStats {
	sm.mu.Lock()
	active := len(sm.sessions.byID)
	sm.mu.Unlock()
	return StreamStats{
		Opened:        sm.opened.Value(),
		Active:        active,
		Flushed:       sm.flushes.Value(),
		Expired:       sm.sessions.expired.Value(),
		TasksAppended: sm.tasks.Value(),
	}
}

// errDuplicateTask tags duplicate-id rejections so the HTTP layer can
// map them to 400 without string matching.
var errDuplicateTask = errors.New("service: duplicate task id")
