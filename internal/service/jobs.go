package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/executor"
	"repro/internal/store"
	"repro/internal/stream"
)

// ErrUnknownJob tags lookups of job ids that were never submitted or have
// been evicted; the HTTP layer maps it to 404 rather than 409.
var ErrUnknownJob = errors.New("service: unknown job")

// JobState is the lifecycle state of an asynchronous decomposition job.
type JobState string

// Job lifecycle: Pending → Running → one of Done / Failed / Canceled.
// Cancel flips a Pending job straight to Canceled; a Running job is
// canceled cooperatively via its context.
const (
	JobPending  JobState = "pending"
	JobRunning  JobState = "running"
	JobDone     JobState = "done"
	JobFailed   JobState = "failed"
	JobCanceled JobState = "canceled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCanceled
}

// Job kinds: a solve job plans, a stream job plans batched arrivals, a
// run job plans and then executes the plan on a simulated platform.
const (
	KindSolve  = "solve"
	KindStream = "stream"
	KindRun    = "run"
)

// JobRequest describes one asynchronous job. Exactly one of Instance,
// Stream or Run must be set.
type JobRequest struct {
	// Instance is a one-shot problem solved with the named Solver.
	Instance *core.Instance
	// Solver names a registered solver; empty selects the service default
	// (the cached OPQ path). For run jobs it names the planner.
	Solver string
	// Stream routes batched arrivals through a stream.Planner: each batch
	// is planned incrementally at optimal block granularity and the
	// remainder is flushed once at the end.
	Stream *StreamJob
	// Run plans an instance and executes the plan against a simulated
	// platform, producing an ExecutionReport.
	Run *RunJob
}

// StreamJob is the streaming-arrival job payload.
type StreamJob struct {
	// Bins is the menu shared by every arrival.
	Bins core.BinSet
	// Threshold is the homogeneous reliability threshold.
	Threshold float64
	// Batches are the arriving task-id batches, planned in order.
	Batches [][]int
}

// JobStatus is an externally visible job snapshot.
type JobStatus struct {
	ID        string    `json:"id"`
	Kind      string    `json:"kind"`
	State     JobState  `json:"state"`
	Solver    string    `json:"solver"`
	Submitted time.Time `json:"submitted"`
	Started   time.Time `json:"started,omitzero"`
	Finished  time.Time `json:"finished,omitzero"`
	// Error holds the failure message of a JobFailed job.
	Error string `json:"error,omitempty"`
	// Summary describes the result plan of a JobDone job.
	Summary *PlanSummary `json:"summary,omitempty"`
	// Report is the execution outcome of a JobDone run job.
	Report *ExecutionReport `json:"report,omitempty"`
}

// job is the manager's internal record.
type job struct {
	id     string
	kind   string
	req    JobRequest
	state  JobState
	solver string
	cancel context.CancelFunc
	// runner is the platform a run job executes against, built at submit
	// (so an unknown model rejects synchronously) and dropped at settle.
	runner executor.BinRunner

	submitted time.Time
	started   time.Time
	finished  time.Time

	plan    *core.Plan
	summary *PlanSummary
	report  *ExecutionReport
	err     error
}

// JobManager runs asynchronous decomposition jobs on a bounded pool. All
// exported methods are safe for concurrent use; internal state is guarded
// by one mutex and solver work runs outside it.
//
// Terminal jobs stay queryable until they are evicted — explicitly via
// EvictJob, or automatically once their age since Finished exceeds the
// configured result TTL. With a durable store configured every terminal
// job is also spilled to it, and a new manager replays the store at
// construction, so completed plans survive a process restart.
type JobManager struct {
	svc *Service

	// store receives terminal job records; nil disables persistence.
	store store.Store
	// ttl evicts terminal jobs (memory and store) this long after they
	// finish; zero keeps them until EvictJob.
	ttl    time.Duration
	logger *slog.Logger
	// platform builds run-job runners; never nil (defaults to the
	// crowdsim-backed factory).
	platform PlatformFactory

	mu     sync.Mutex
	jobs   map[string]*job
	nextID int
	// slots bounds concurrently running jobs; acquired before a job flips
	// to Running so a flood of submissions queues instead of oversubscribing
	// the solver pool.
	slots chan struct{}

	counts struct {
		submitted, done, failed, canceled uint64
		persisted, recovered, expired     uint64
		// interrupted counts run jobs replayed from a non-terminal record
		// at construction — they failed mid-run when the process stopped.
		interrupted uint64
		// Run-execution aggregates, counted only for runs executed by
		// this process (recovered reports never re-execute).
		runs, runBins, runTopUps uint64
		runSpend                 float64
	}

	// persistWG tracks in-flight spills to the store so close can wait
	// for every settled job to be durable before returning.
	persistWG sync.WaitGroup

	// janitorStop ends the TTL sweeper; nil when no janitor runs.
	janitorStop chan struct{}
	janitorDone chan struct{}
	closeOnce   sync.Once
}

// newJobManager wires a manager to its owning service, replays any jobs
// the store holds from previous processes, and starts the TTL janitor
// when a positive ttl is configured.
func newJobManager(svc *Service, maxConcurrent int, st store.Store, ttl time.Duration, logger *slog.Logger, platform PlatformFactory) *JobManager {
	if maxConcurrent <= 0 {
		maxConcurrent = 1
	}
	if logger == nil {
		logger = slog.Default()
	}
	if platform == nil {
		platform = defaultPlatformFactory
	}
	m := &JobManager{
		svc:      svc,
		store:    st,
		ttl:      ttl,
		logger:   logger,
		platform: platform,
		jobs:     make(map[string]*job),
		slots:    make(chan struct{}, maxConcurrent),
	}
	m.replay()
	if ttl > 0 {
		m.janitorStop = make(chan struct{})
		m.janitorDone = make(chan struct{})
		go m.janitor()
	}
	return m
}

// replay loads every readable terminal job record from the store into
// memory, so results submitted before a restart remain queryable. Records
// that fail to decode are skipped with a warning; ids are re-parsed so
// fresh submissions never collide with recovered ones.
func (m *JobManager) replay() {
	if m.store == nil {
		return
	}
	recs, err := m.store.ListJobs()
	if err != nil {
		m.logger.Warn("replaying job store failed", "err", err)
		return
	}
	now := time.Now()
	var expired []string
	var interrupted []*job
	m.mu.Lock()
	for _, rec := range recs {
		j, wasInterrupted, err := jobFromRecord(rec, now)
		if err != nil {
			m.logger.Warn("skipping unreadable job record", "id", rec.ID, "err", err)
			continue
		}
		if m.ttl > 0 && now.Sub(j.finished) >= m.ttl {
			expired = append(expired, j.id) // expired while the process was down
			continue
		}
		m.jobs[j.id] = j
		m.counts.recovered++
		if wasInterrupted {
			m.counts.interrupted++
			interrupted = append(interrupted, j)
		}
		// Keep fresh ids strictly after every recovered one.
		if n, ok := jobIDNumber(j.id); ok && n > m.nextID {
			m.nextID = n
		}
	}
	// Converge the store on the interrupted jobs' terminal form while
	// still under the lock (recordFromJob's contract), so a second
	// restart replays them as ordinary failed jobs.
	interruptedRecs := make([]store.JobRecord, 0, len(interrupted))
	for _, j := range interrupted {
		rec, err := recordFromJob(j)
		if err != nil {
			m.logger.Warn("encoding interrupted job failed", "id", j.id, "err", err)
			continue
		}
		interruptedRecs = append(interruptedRecs, rec)
	}
	m.mu.Unlock()
	for _, rec := range interruptedRecs {
		m.logger.Warn("run job interrupted by restart", "id", rec.ID)
		if err := m.store.PutJob(rec); err != nil {
			m.logger.Warn("persisting interrupted job failed", "id", rec.ID, "err", err)
		}
	}
	// Reap expired-on-disk records here, once, rather than rescanning the
	// whole store from the janitor: after replay, every live record has an
	// in-memory twin whose expiry the sweep tracks directly.
	for _, id := range expired {
		m.deleteStored(id)
	}
}

// jobIDNumber extracts N from a "job-N" id.
func jobIDNumber(id string) (int, bool) {
	num, ok := strings.CutPrefix(id, "job-")
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(num)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// errInterrupted is the terminal error stamped on jobs whose record was
// still non-terminal at replay: the process stopped mid-run, the job can
// never resume (its platform session is gone), so it fails loudly rather
// than vanishing.
var errInterrupted = errors.New("interrupted by restart: the process stopped while the job was running")

// jobFromRecord rebuilds an in-memory job from its durable form. A
// non-terminal record — written as a running marker before a crash — is
// converted to a failed job stamped with errInterrupted and finished at
// now; interrupted reports that conversion so replay can count it and
// converge the store.
func jobFromRecord(rec store.JobRecord, now time.Time) (j *job, interrupted bool, err error) {
	state := JobState(rec.State)
	if !state.Terminal() {
		interrupted = true
	}
	j = &job{
		id:        rec.ID,
		kind:      rec.Kind,
		state:     state,
		solver:    rec.Solver,
		submitted: rec.Submitted,
		started:   rec.Started,
		finished:  rec.Finished,
	}
	if j.kind == "" {
		// Version-1 records carry no kind; stream jobs are recognizable
		// from their reserved solver name, everything else was a solve.
		if j.solver == "stream" {
			j.kind = KindStream
		} else {
			j.kind = KindSolve
		}
	}
	if rec.Error != "" {
		j.err = errors.New(rec.Error)
	}
	if interrupted {
		// The marker has no plan, summary or report to decode; fail it in
		// place with a finish time of "now" (the closest observable moment
		// to the actual death) so the result TTL starts from the restart.
		j.state = JobFailed
		j.err = errInterrupted
		j.finished = now
		return j, true, nil
	}
	if len(rec.Plan) > 0 {
		var plan core.Plan
		if err := json.Unmarshal(rec.Plan, &plan); err != nil {
			return nil, false, fmt.Errorf("decoding plan: %w", err)
		}
		j.plan = &plan
	}
	if len(rec.Summary) > 0 {
		var sum PlanSummary
		if err := json.Unmarshal(rec.Summary, &sum); err != nil {
			return nil, false, fmt.Errorf("decoding summary: %w", err)
		}
		j.summary = &sum
	}
	if len(rec.Report) > 0 {
		var rep ExecutionReport
		if err := json.Unmarshal(rec.Report, &rep); err != nil {
			return nil, false, fmt.Errorf("decoding execution report: %w", err)
		}
		j.report = &rep
	}
	if state == JobDone && j.plan == nil {
		return nil, false, fmt.Errorf("done record without a plan")
	}
	if state == JobDone && j.kind == KindRun && j.report == nil {
		return nil, false, fmt.Errorf("done run record without an execution report")
	}
	return j, false, nil
}

// record converts a terminal job to its durable form. Caller holds m.mu.
func recordFromJob(j *job) (store.JobRecord, error) {
	rec := store.JobRecord{
		Version:   store.RecordVersion,
		ID:        j.id,
		Kind:      j.kind,
		State:     string(j.state),
		Solver:    j.solver,
		Submitted: j.submitted,
		Started:   j.started,
		Finished:  j.finished,
	}
	if j.err != nil {
		rec.Error = j.err.Error()
	}
	if j.plan != nil {
		data, err := json.Marshal(j.plan)
		if err != nil {
			return store.JobRecord{}, err
		}
		rec.Plan = data
	}
	if j.summary != nil {
		data, err := json.Marshal(j.summary)
		if err != nil {
			return store.JobRecord{}, err
		}
		rec.Summary = data
	}
	if j.report != nil {
		data, err := json.Marshal(j.report)
		if err != nil {
			return store.JobRecord{}, err
		}
		rec.Report = data
	}
	return rec, nil
}

// persist spills a terminal job to the store; failures are logged, never
// fatal — the in-memory copy still serves until eviction. After the write
// it re-checks that the job is still live: a concurrent EvictJob (or TTL
// expiry) may have raced the spill, deleted from the store before the
// record landed, and would otherwise see the job resurrected at the next
// replay. Either ordering now ends with the record gone — the later of
// the two operations observes the other's effect under m.mu and deletes.
func (m *JobManager) persist(rec store.JobRecord) {
	if err := m.store.PutJob(rec); err != nil {
		m.logger.Warn("persisting job failed", "id", rec.ID, "err", err)
		return
	}
	m.mu.Lock()
	_, live := m.jobs[rec.ID]
	if live {
		m.counts.persisted++
	}
	m.mu.Unlock()
	if !live {
		m.deleteStored(rec.ID)
	}
}

// janitor periodically reaps expired terminal jobs until close.
func (m *JobManager) janitor() {
	defer close(m.janitorDone)
	interval := m.ttl / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	if interval > time.Minute {
		interval = time.Minute
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-m.janitorStop:
			return
		case now := <-t.C:
			m.sweep(now)
			// Stream sessions share the result TTL and ride the same
			// janitor instead of running a second timer.
			if m.svc.streams != nil {
				m.svc.streams.sweep(now)
			}
		}
	}
}

// expiredLocked reports whether the job's result has outlived the TTL.
// Caller holds m.mu.
func (m *JobManager) expiredLocked(j *job, now time.Time) bool {
	return m.ttl > 0 && j.state.Terminal() && !j.finished.IsZero() && now.Sub(j.finished) >= m.ttl
}

// sweep drops every expired terminal job from memory and the store.
// Records with no in-memory twin need no scan here: replay reaps the
// pre-boot expirations and persist cleans up after eviction races, so
// after construction every live record has an in-memory twin.
func (m *JobManager) sweep(now time.Time) {
	if m.ttl <= 0 {
		return
	}
	m.mu.Lock()
	var expired []string
	for id, j := range m.jobs {
		if m.expiredLocked(j, now) {
			delete(m.jobs, id)
			expired = append(expired, id)
			m.counts.expired++
		}
	}
	m.mu.Unlock()
	for _, id := range expired {
		m.svc.events.drop(id)
		m.deleteStored(id)
	}
}

// deleteStored removes a job record from the store, tolerating absence.
func (m *JobManager) deleteStored(id string) {
	if m.store == nil {
		return
	}
	if err := m.store.DeleteJob(id); err != nil && !errors.Is(err, store.ErrNotFound) {
		m.logger.Warn("deleting stored job failed", "id", id, "err", err)
	}
}

// close waits for in-flight spills to reach the store and stops the TTL
// janitor; terminal job records stay in the store. Jobs still solving are
// not waited for — their spill happens in a process that may outlive the
// manager's owner, which is harmless (the store is append-consistent).
func (m *JobManager) close() {
	m.closeOnce.Do(func() {
		m.persistWG.Wait()
		if m.janitorStop != nil {
			close(m.janitorStop)
			<-m.janitorDone
		}
	})
}

// Submit registers the request and starts it asynchronously, returning the
// job id immediately. Safe for concurrent use; the request (including the
// instance, stream and run payloads) must not be mutated after Submit
// returns.
func (m *JobManager) Submit(req JobRequest) (string, error) {
	st, err := m.submit(req)
	return st.ID, err
}

// submit is Submit returning the job's snapshot taken under the lock hold
// that registered it — always pending, however fast the job then runs —
// which is what the 202 reply carries.
func (m *JobManager) submit(req JobRequest) (JobStatus, error) {
	payloads := 0
	for _, set := range []bool{req.Instance != nil, req.Stream != nil, req.Run != nil} {
		if set {
			payloads++
		}
	}
	if payloads != 1 {
		return JobStatus{}, fmt.Errorf("service: job needs exactly one of instance, stream or run")
	}
	kind := KindSolve
	solver := req.Solver
	var runner executor.BinRunner
	// Solve and run jobs plan with a registered solver; resolve it once.
	if req.Instance != nil || req.Run != nil {
		if solver == "" {
			solver = m.svc.DefaultSolver()
		}
		if _, err := m.svc.solver(solver); err != nil {
			return JobStatus{}, err
		}
	}
	if req.Run != nil {
		kind = KindRun
		if err := req.Run.validate(); err != nil {
			return JobStatus{}, err
		}
		// Build the platform now so an unknown model or a bad pool config
		// rejects the submission instead of failing the job later.
		var err error
		if runner, err = m.platform(req.Run.Platform); err != nil {
			return JobStatus{}, err
		}
	}
	if req.Stream != nil {
		kind = KindStream
		if solver != "" {
			return JobStatus{}, fmt.Errorf("service: stream jobs use the stream planner; solver %q not applicable", solver)
		}
		solver = "stream"
		if err := req.Stream.Bins.Validate(); err != nil {
			return JobStatus{}, err
		}
		if req.Stream.Bins.Len() == 0 {
			return JobStatus{}, fmt.Errorf("service: stream job with empty menu")
		}
		if !(req.Stream.Threshold >= 0 && req.Stream.Threshold < 1) {
			return JobStatus{}, fmt.Errorf("service: stream threshold %v outside [0,1)", req.Stream.Threshold)
		}
		// The block expansion of Algorithm 3 assumes distinct task ids; a
		// duplicate would land in one bin twice and make the plan invalid,
		// so reject it up front rather than serving a corrupt plan.
		seen := make(map[int]struct{})
		for _, batch := range req.Stream.Batches {
			for _, id := range batch {
				if _, dup := seen[id]; dup {
					return JobStatus{}, fmt.Errorf("service: duplicate task id %d in stream batches", id)
				}
				seen[id] = struct{}{}
			}
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	m.mu.Lock()
	m.nextID++
	j := &job{
		id:        fmt.Sprintf("job-%d", m.nextID),
		kind:      kind,
		req:       req,
		state:     JobPending,
		solver:    solver,
		cancel:    cancel,
		runner:    runner,
		submitted: time.Now(),
	}
	m.jobs[j.id] = j
	m.counts.submitted++
	st := j.statusLocked()
	m.mu.Unlock()

	go m.run(ctx, j)
	return st, nil
}

// run drives one job through its lifecycle.
func (m *JobManager) run(ctx context.Context, j *job) {
	// Wait for a slot; a cancel while queued settles the job without
	// running it.
	select {
	case m.slots <- struct{}{}:
		defer func() { <-m.slots }()
	case <-ctx.Done():
		m.settle(j, nil, nil, ctx.Err())
		return
	}

	m.mu.Lock()
	if j.state != JobPending { // canceled between Submit and slot grant
		m.mu.Unlock()
		return
	}
	j.state = JobRunning
	j.started = time.Now()
	var marker store.JobRecord
	writeMarker := j.kind == KindRun && m.store != nil
	if writeMarker {
		var err error
		if marker, err = recordFromJob(j); err != nil {
			m.logger.Warn("encoding running marker failed", "id", j.id, "err", err)
			writeMarker = false
		}
	}
	m.mu.Unlock()
	// Run jobs leave a non-terminal marker in the store before executing:
	// if the process dies mid-run, the next boot replays the marker as a
	// failed "interrupted by restart" job instead of losing it silently.
	// Written directly (not via persist) so the persisted counter keeps
	// meaning "terminal jobs spilled"; the terminal record overwrites the
	// marker at settle.
	if writeMarker {
		if err := m.store.PutJob(marker); err != nil {
			m.logger.Warn("persisting running marker failed", "id", j.id, "err", err)
		}
	}
	// The first event of every job's feed: it started running. Run jobs
	// follow with per-bin progress frames from the executor observer.
	m.svc.events.publish(j.id, JobEvent{State: JobRunning})

	plan, report, err := m.execute(ctx, j)
	if err == nil && ctx.Err() != nil {
		// A context-unaware solver ran to completion despite a cancel; the
		// cancel still wins, so the job settles Canceled, not Done.
		err = ctx.Err()
	}
	m.settle(j, plan, report, err)
}

// execute performs the job's work; only run jobs produce a report.
func (m *JobManager) execute(ctx context.Context, j *job) (*core.Plan, *ExecutionReport, error) {
	switch {
	case j.req.Stream != nil:
		plan, err := m.runStream(ctx, j.req.Stream)
		return plan, nil, err
	case j.req.Run != nil:
		return m.runRun(ctx, j)
	default:
		plan, err := m.svc.DecomposeWith(ctx, j.solver, j.req.Instance)
		return plan, nil, err
	}
}

// runStream plans the batches through a fresh planner built on the cached
// queue. The planner is single-use here: it is created per job and flushed
// exactly once, so a flushed planner is never reused (stream.Planner.Reset
// exists for pools that do want reuse).
func (m *JobManager) runStream(ctx context.Context, sj *StreamJob) (*core.Plan, error) {
	q, err := m.svc.cache.Get(sj.Bins, sj.Threshold)
	if err != nil {
		return nil, err
	}
	planner, err := stream.NewPlannerWithQueue(q)
	if err != nil {
		return nil, err
	}
	plans := make([]*core.Plan, 0, len(sj.Batches)+1)
	for _, batch := range sj.Batches {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		p, err := planner.Add(batch...)
		if err != nil {
			return nil, err
		}
		plans = append(plans, p)
	}
	tail, err := planner.Flush()
	if err != nil {
		return nil, err
	}
	plans = append(plans, tail)
	return core.MergePlans(plans...), nil
}

// settle records a job's terminal state and, with a store configured,
// spills the record to it (outside the lock; a slow disk never blocks
// Status calls). It is the only terminal transition a job has.
func (m *JobManager) settle(j *job, plan *core.Plan, report *ExecutionReport, err error) {
	m.mu.Lock()
	m.settleLocked(j, plan, report, err)
}

// settleLocked is settle for a caller that already holds m.mu — which it
// releases before publishing and persisting.
func (m *JobManager) settleLocked(j *job, plan *core.Plan, report *ExecutionReport, err error) {
	if j.state.Terminal() {
		m.mu.Unlock()
		return
	}
	j.finished = time.Now()
	j.runner = nil // the platform (and any worker pool) is done; free it
	switch {
	case err == nil:
		j.state = JobDone
		j.plan = plan
		j.report = report
		if s, serr := summarize(plan, j.req); serr == nil {
			j.summary = s
		}
		m.counts.done++
		if report != nil {
			m.counts.runs++
			m.counts.runBins += uint64(report.BinsIssued)
			m.counts.runTopUps += uint64(report.TopUpRounds)
			m.counts.runSpend += report.Spent
			if bm := m.svc.metrics; bm != nil {
				bm.execJobSpend.Observe(report.Spent)
			}
		}
	case errors.Is(err, context.Canceled):
		j.state = JobCanceled
		m.counts.canceled++
	default:
		j.state = JobFailed
		j.err = err
		m.counts.failed++
	}
	if j.cancel != nil {
		j.cancel() // release the context's resources in every terminal path
	}
	var rec store.JobRecord
	persist := m.store != nil
	if persist {
		var rerr error
		rec, rerr = recordFromJob(j)
		if rerr != nil {
			m.logger.Warn("encoding job for the store failed", "id", j.id, "err", rerr)
			persist = false
		}
	}
	if persist {
		m.persistWG.Add(1) // under the lock, so close cannot miss it
	}
	ev := terminalEventLocked(j)
	m.mu.Unlock()
	m.svc.events.publish(j.id, ev)
	if persist {
		defer m.persistWG.Done()
		m.persist(rec)
	}
}

// terminalEventLocked builds a job's terminal SSE frame. Caller holds
// m.mu and the job is terminal.
func terminalEventLocked(j *job) JobEvent {
	ev := JobEvent{
		State:   j.state,
		Summary: j.summary,
		Report:  j.report,
	}
	if j.err != nil {
		ev.Error = j.err.Error()
	}
	if j.report != nil {
		ev.BinsIssued = j.report.BinsIssued
		ev.TopUpRounds = j.report.TopUpRounds
		ev.Spent = j.report.Spent
		ev.DeliveredMass = j.report.DeliveredMass
	}
	return ev
}

// summarize computes the result summary against the job's menu.
func summarize(plan *core.Plan, req JobRequest) (*PlanSummary, error) {
	var bins core.BinSet
	switch {
	case req.Stream != nil:
		bins = req.Stream.Bins
	case req.Run != nil:
		bins = req.Run.Instance.Bins()
	default:
		bins = req.Instance.Bins()
	}
	sum, err := plan.Summarize(bins)
	if err != nil {
		return nil, err
	}
	ps := NewPlanSummary(sum)
	return &ps, nil
}

// expire applies lazy TTL expiry to id: a terminal job past its TTL is
// dropped from memory (and, outside the lock, from the store) so TTL
// precision does not depend on janitor timing. It reports whether the id
// was expired by this call.
func (m *JobManager) expire(id string) bool {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok || !m.expiredLocked(j, time.Now()) {
		m.mu.Unlock()
		return false
	}
	delete(m.jobs, id)
	m.counts.expired++
	m.mu.Unlock()
	m.svc.events.drop(id)
	m.deleteStored(id)
	return true
}

// Status returns a snapshot of the job. Safe for concurrent use.
func (m *JobManager) Status(id string) (JobStatus, error) {
	m.expire(id)
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return JobStatus{}, fmt.Errorf("%w %q", ErrUnknownJob, id)
	}
	return j.statusLocked(), nil
}

// statusLocked snapshots the job; the caller holds the manager's mu.
func (j *job) statusLocked() JobStatus {
	st := JobStatus{
		ID:        j.id,
		Kind:      j.kind,
		State:     j.state,
		Solver:    j.solver,
		Submitted: j.submitted,
		Started:   j.started,
		Finished:  j.finished,
		Summary:   j.summary,
		Report:    j.report,
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	return st
}

// Result returns the plan of a JobDone job. Safe for concurrent use; the
// returned plan is shared and must be treated as read-only.
func (m *JobManager) Result(id string) (*core.Plan, error) {
	m.expire(id)
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownJob, id)
	}
	switch j.state {
	case JobDone:
		return j.plan, nil
	case JobFailed:
		return nil, fmt.Errorf("service: job %s failed: %w", id, j.err)
	case JobCanceled:
		return nil, fmt.Errorf("service: job %s was canceled", id)
	default:
		return nil, fmt.Errorf("service: job %s still %s", id, j.state)
	}
}

// Cancel stops a pending or running job. Canceling a terminal job is an
// error; canceling a running job is cooperative (the solver observes the
// context while it waits for a solve slot, the executor between bins) and
// the job settles as Canceled once it stops.
// Safe for concurrent use, including concurrent Cancels of the same job.
func (m *JobManager) Cancel(id string) error {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return fmt.Errorf("%w %q", ErrUnknownJob, id)
	}
	if j.state.Terminal() {
		m.mu.Unlock()
		return fmt.Errorf("service: job %s already %s", id, j.state)
	}
	if j.state == JobPending {
		// Settled here, under the same lock hold that saw it pending, so
		// it can never start; its run goroutine finds it terminal.
		m.settleLocked(j, nil, nil, context.Canceled)
		return nil
	}
	m.mu.Unlock()
	j.cancel()
	return nil
}

// EvictJob drops a terminal job's record (and its plan) from memory and
// from the durable store. With a result TTL configured the janitor does
// this automatically; EvictJob remains for explicit reclamation. Safe for
// concurrent use.
func (m *JobManager) EvictJob(id string) error {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return fmt.Errorf("%w %q", ErrUnknownJob, id)
	}
	if !j.state.Terminal() {
		m.mu.Unlock()
		return fmt.Errorf("service: job %s still %s", id, j.state)
	}
	delete(m.jobs, id)
	m.mu.Unlock()
	m.svc.events.drop(id)
	m.deleteStored(id)
	return nil
}

// JobStats counts jobs by outcome, by durability event, and — for run
// jobs — by execution aggregate.
type JobStats struct {
	Submitted uint64 `json:"submitted"`
	Running   int    `json:"running"`
	Pending   int    `json:"pending"`
	Done      uint64 `json:"done"`
	Failed    uint64 `json:"failed"`
	Canceled  uint64 `json:"canceled"`
	// Persisted counts terminal jobs spilled to the durable store.
	Persisted uint64 `json:"persisted"`
	// Recovered counts jobs replayed from the store at construction.
	Recovered uint64 `json:"recovered"`
	// Expired counts terminal jobs reaped by the result TTL.
	Expired uint64 `json:"expired"`
	// RunsInterrupted counts run jobs found non-terminal in the store at
	// startup and replayed as failed ("interrupted by restart").
	RunsInterrupted uint64 `json:"runs_interrupted"`
	// Runs counts run jobs executed to completion by this process;
	// recovered run reports are served without re-execution and do not
	// count. RunBinsIssued / RunTopUpRounds / RunSpend aggregate across
	// those executions.
	Runs           uint64  `json:"runs"`
	RunBinsIssued  uint64  `json:"run_bins_issued"`
	RunTopUpRounds uint64  `json:"run_top_up_rounds"`
	RunSpend       float64 `json:"run_spend"`
}

// Stats returns a snapshot of job counters. Safe for concurrent use.
func (m *JobManager) Stats() JobStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := JobStats{
		Submitted:       m.counts.submitted,
		Done:            m.counts.done,
		Failed:          m.counts.failed,
		Canceled:        m.counts.canceled,
		Persisted:       m.counts.persisted,
		Recovered:       m.counts.recovered,
		Expired:         m.counts.expired,
		RunsInterrupted: m.counts.interrupted,
		Runs:            m.counts.runs,
		RunBinsIssued:   m.counts.runBins,
		RunTopUpRounds:  m.counts.runTopUps,
		RunSpend:        m.counts.runSpend,
	}
	for _, j := range m.jobs {
		switch j.state {
		case JobRunning:
			s.Running++
		case JobPending:
			s.Pending++
		}
	}
	return s
}
