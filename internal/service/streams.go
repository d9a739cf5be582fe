package service

import (
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/stream"
)

// This file is the incremental-ingest API: a stream session wraps a
// stream.Planner so a client can open a (menu, threshold) stream, append
// task arrivals as they happen — each append plans every full OPQ1 block
// the buffer now holds through the cached queue — and flush once at the
// end for the remainder. The merged plan costs exactly what a one-shot
// solve of the whole arrival sequence would (stream.Planner's guarantee),
// and stays queryable until the session is deleted or the result TTL
// reaps it via the job janitor.

// ErrUnknownStream tags lookups of stream ids that were never opened or
// have been deleted/expired; the HTTP layer maps it to 404.
var ErrUnknownStream = errors.New("service: unknown stream")

// errStreamFlushed tags mutations of a session that has already been
// flushed; the HTTP layer maps it to 409.
var errStreamFlushed = errors.New("service: stream already flushed")

// Stream session states.
const (
	StreamOpen    = "open"
	StreamFlushed = "flushed"
)

// streamSession is one incremental planning session. The planner is not
// concurrency-safe, so every mutation holds mu; lastNS is atomic so the
// TTL sweep never waits behind an in-flight solve.
type streamSession struct {
	id        string
	bins      core.BinSet
	threshold float64
	created   time.Time
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
	summary  *PlanSummary
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
	Summary *PlanSummary `json:"summary,omitempty"`
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

// append plans a batch of arrivals; caller holds ss.mu.
func (ss *streamSession) appendLocked(tasks []int) error {
	if ss.flushed {
		return errStreamFlushed
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
	return nil
}

// flush plans the remainder and seals the merged result; caller holds
// ss.mu.
func (ss *streamSession) flushLocked() error {
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
	ps := NewPlanSummary(sum)
	ss.summary = &ps
	ss.flushed = true
	ss.finished = time.Now()
	ss.touch()
	return nil
}

// StreamManager owns the open sessions. All exported behaviour is via
// the HTTP handlers; sessions expire on the job janitor's TTL sweep and
// lazily on access, exactly like terminal jobs.
type StreamManager struct {
	svc *Service
	// ttl reaps sessions idle (open) or finished (flushed) this long; 0
	// keeps them until DELETE.
	ttl time.Duration

	mu       sync.Mutex
	sessions map[string]*streamSession
	nextID   int
	counts   struct {
		opened, flushed, expired, tasks uint64
	}
}

func newStreamManager(svc *Service, ttl time.Duration) *StreamManager {
	return &StreamManager{
		svc:      svc,
		ttl:      ttl,
		sessions: make(map[string]*streamSession),
	}
}

// open builds a session around the cached queue for (bins, threshold).
func (sm *StreamManager) open(bins core.BinSet, threshold float64) (*streamSession, error) {
	q, err := sm.svc.cache.Get(bins, threshold)
	if err != nil {
		return nil, err
	}
	planner, err := stream.NewPlannerWithQueue(q)
	if err != nil {
		return nil, err
	}
	ss := &streamSession{
		bins:      bins,
		threshold: threshold,
		created:   time.Now(),
		planner:   planner,
		seen:      make(map[int]struct{}),
	}
	ss.touch()
	sm.mu.Lock()
	sm.nextID++
	ss.id = fmt.Sprintf("stream-%d", sm.nextID)
	sm.sessions[ss.id] = ss
	sm.counts.opened++
	sm.mu.Unlock()
	sm.svc.metrics.streamSessionsOpened.Inc()
	sm.svc.metrics.streamSessionsActive.Inc()
	return ss, nil
}

// lookup resolves a session, applying lazy TTL expiry first.
func (sm *StreamManager) lookup(id string) (*streamSession, error) {
	now := time.Now()
	sm.mu.Lock()
	defer sm.mu.Unlock()
	ss, ok := sm.sessions[id]
	if ok && sm.expiredLocked(ss, now) {
		delete(sm.sessions, id)
		sm.counts.expired++
		sm.svc.metrics.streamSessionsExpired.Inc()
		sm.svc.metrics.streamSessionsActive.Dec()
		ok = false
	}
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownStream, id)
	}
	return ss, nil
}

// remove deletes a session (DELETE /v1/streams/{id}).
func (sm *StreamManager) remove(id string) error {
	sm.mu.Lock()
	_, ok := sm.sessions[id]
	if ok {
		delete(sm.sessions, id)
		sm.svc.metrics.streamSessionsActive.Dec()
	}
	sm.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w %q", ErrUnknownStream, id)
	}
	return nil
}

// expiredLocked reports whether the session has idled past the TTL.
// Caller holds sm.mu.
func (sm *StreamManager) expiredLocked(ss *streamSession, now time.Time) bool {
	return sm.ttl > 0 && now.UnixNano()-ss.lastNS.Load() >= int64(sm.ttl)
}

// sweep reaps expired sessions; the job janitor calls it on its tick.
func (sm *StreamManager) sweep(now time.Time) {
	if sm.ttl <= 0 {
		return
	}
	sm.mu.Lock()
	for id, ss := range sm.sessions {
		if sm.expiredLocked(ss, now) {
			delete(sm.sessions, id)
			sm.counts.expired++
			sm.svc.metrics.streamSessionsExpired.Inc()
			sm.svc.metrics.streamSessionsActive.Dec()
		}
	}
	sm.mu.Unlock()
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

// stats snapshots the counters. Safe for concurrent use.
func (sm *StreamManager) stats() StreamStats {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	return StreamStats{
		Opened:        sm.counts.opened,
		Active:        len(sm.sessions),
		Flushed:       sm.counts.flushed,
		Expired:       sm.counts.expired,
		TasksAppended: sm.counts.tasks,
	}
}

// streamOpenRequest is the POST /v1/streams body.
type streamOpenRequest struct {
	Bins      []core.TaskBin `json:"bins"`
	Threshold float64        `json:"threshold"`
}

// streamAppendRequest is the POST /v1/streams/{id}/tasks body.
type streamAppendRequest struct {
	Tasks []int `json:"tasks"`
}

// streamStatusResponse augments StreamStatus with the optional merged
// plan, mirroring jobStatusResponse.
type streamStatusResponse struct {
	StreamStatus
	Plan []core.BinUse `json:"plan,omitempty"`
}

func handleOpenStream(s *Service, w http.ResponseWriter, r *http.Request) {
	var req streamOpenRequest
	if !decodeBody(w, r, &req) {
		return
	}
	bins, err := core.NewBinSet(req.Bins)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if bins.Len() == 0 {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("service: stream with empty menu"))
		return
	}
	if !(req.Threshold >= 0 && req.Threshold < 1) {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("service: stream threshold %v outside [0,1)", req.Threshold))
		return
	}
	ss, err := s.streams.open(bins, req.Threshold)
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	ss.mu.Lock()
	st := ss.statusLocked()
	ss.mu.Unlock()
	writeJSON(w, http.StatusCreated, st)
}

func handleStreamAppend(s *Service, w http.ResponseWriter, r *http.Request) {
	var req streamAppendRequest
	if !decodeBody(w, r, &req) {
		return
	}
	ss, err := s.streams.lookup(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	ss.mu.Lock()
	err = ss.appendLocked(req.Tasks)
	st := ss.statusLocked()
	ss.mu.Unlock()
	if err != nil {
		writeErr(w, streamErrStatus(err), err)
		return
	}
	s.streams.mu.Lock()
	s.streams.counts.tasks += uint64(len(req.Tasks))
	s.streams.mu.Unlock()
	s.metrics.streamTasksAppended.Add(uint64(len(req.Tasks)))
	writeJSON(w, http.StatusOK, st)
}

func handleStreamFlush(s *Service, w http.ResponseWriter, r *http.Request) {
	ss, err := s.streams.lookup(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	ss.mu.Lock()
	err = ss.flushLocked()
	st := ss.statusLocked()
	ss.mu.Unlock()
	if err != nil {
		writeErr(w, streamErrStatus(err), err)
		return
	}
	s.streams.mu.Lock()
	s.streams.counts.flushed++
	s.streams.mu.Unlock()
	s.metrics.streamFlushes.Inc()
	writeJSON(w, http.StatusOK, st)
}

func handleStreamStatus(s *Service, w http.ResponseWriter, r *http.Request) {
	ss, err := s.streams.lookup(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	ss.mu.Lock()
	st := ss.statusLocked()
	merged := ss.merged
	ss.mu.Unlock()
	resp := streamStatusResponse{StreamStatus: st}
	if r.URL.Query().Get("include_plan") == "true" {
		if st.State != StreamFlushed {
			writeErr(w, http.StatusConflict, fmt.Errorf("service: stream %s not flushed; no merged plan yet", st.ID))
			return
		}
		writePlanStreamed(w, http.StatusOK, resp, merged)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func handleStreamDelete(s *Service, w http.ResponseWriter, r *http.Request) {
	if err := s.streams.remove(r.PathValue("id")); err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// errDuplicateTask tags duplicate-id rejections so the HTTP layer can
// map them to 400 without string matching.
var errDuplicateTask = errors.New("service: duplicate task id")

// streamErrStatus maps session mutation errors: flushed-conflict to 409,
// client mistakes (duplicate ids) to 400, summarize invariant breaks to
// 500, solver-side failures through statusFor.
func streamErrStatus(err error) int {
	switch {
	case errors.Is(err, errStreamFlushed):
		return http.StatusConflict
	case errors.Is(err, errDuplicateTask):
		return http.StatusBadRequest
	case errors.Is(err, errSummarize):
		return http.StatusInternalServerError
	}
	return statusFor(err)
}
