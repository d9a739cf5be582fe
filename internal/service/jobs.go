package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/executor"
	"repro/internal/obs"
	"repro/internal/store"
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

// Job kinds: a solve job plans, a run job plans and then executes the
// plan on a simulated platform.
const (
	KindSolve = "solve"
	KindRun   = "run"
)

// kindStream is the kind of the stream jobs earlier releases ran, whose
// stored records still replay; streamed planning is a /v1/streams session.
const kindStream = "stream"

// JobRequest describes one asynchronous job. Exactly one of Instance or
// Run must be set.
type JobRequest struct {
	// Instance is a one-shot problem solved with the named Solver.
	Instance *core.Instance
	// Solver names a registered solver; empty selects the service default
	// (the cached OPQ path). For run jobs it names the planner.
	Solver string
	// Run plans an instance and executes the plan against a simulated
	// platform, producing an ExecutionReport.
	Run *RunJob
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
	Summary *core.Summary `json:"summary,omitempty"`
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
	summary *core.Summary
	report  *ExecutionReport
	err     error

	// feed is the job's SSE event feed. Submit creates it; a job replayed
	// from the store has none until its first read (see snapshot).
	feed *jobFeed
}

// JobManager runs asynchronous decomposition jobs on a bounded pool. All
// exported methods are safe for concurrent use; internal state is guarded
// by one mutex and solver work runs outside it.
//
// Terminal jobs stay queryable until their age since Finished exceeds the
// configured result TTL; with no TTL, for the manager's lifetime. With a
// durable store configured every terminal job is also spilled to it, and
// a new manager replays the store at construction, so completed plans
// survive a process restart.
type JobManager struct {
	svc *Service

	// store receives terminal job records, each access timed on the
	// slade_store_* series (persist.go); nil disables persistence.
	store  store.Store
	logger *slog.Logger
	// platform builds run-job runners; never nil (defaults to the
	// crowdsim-backed factory).
	platform PlatformFactory

	mu sync.Mutex
	// jobs is the job table. A job's expiry clock is its finish time, so
	// under a fixed TTL its queue is in expiry order: settle queues each
	// terminal job, replay the recovered ones sorted. The result TTL
	// evicts a job from memory and store this long after it finishes.
	jobs residents[*job]
	// slots bounds concurrently running jobs; acquired before a job flips
	// to Running so a flood of submissions queues instead of oversubscribing
	// the solver pool.
	slots chan struct{}

	// counts has one home per number: the instrument newJobManager
	// registers for each series /metrics serves, a plain counter for the
	// rest. Writers move them under mu; Stats reads them without it.
	counts struct {
		done, failed, canceled *obs.Counter
		persisted, recovered   *obs.Counter
		// interrupted counts run jobs replayed from a non-terminal record
		// at construction — they failed mid-run when the process stopped.
		interrupted *obs.Counter
		// running and pending move only at submit (+pending), slot grant
		// (pending → running) and settleLocked (−pending or −running).
		running, pending *obs.Gauge
		submitted        obs.Counter
		// Run-execution aggregates, counted only for runs executed by
		// this process (recovered reports never re-execute); spend
		// observes each run's total, so its count and sum are the run
		// count and spend.
		runBins, runTopUps obs.Counter
		spend              *obs.Histogram
	}

	// The slade_executor_* instruments every run job's observer writes
	// (events.go).
	execBins, execRetries, execTopUps *obs.Counter
	execBinDuration                   *obs.Histogram
	// sseEvents counts the frames the jobs' feeds publish; sseSubscribers
	// the feeds' open subscriptions (see subscribe).
	sseEvents      *obs.Counter
	sseSubscribers *obs.Gauge
	// storeDuration and storeErrors are the slade_store_* series by op.
	storeDuration map[string]*obs.Histogram
	storeErrors   map[string]*obs.Counter

	// persistWG tracks in-flight spills to the store so Service.Close
	// can wait for every settled job to be durable before returning.
	persistWG sync.WaitGroup
}

// newJobManager wires a manager to its owning service and replays any
// jobs the store holds from previous processes.
func newJobManager(svc *Service, maxConcurrent int, st store.Store, ttl time.Duration, logger *slog.Logger, platform PlatformFactory) *JobManager {
	m := &JobManager{
		svc:      svc,
		store:    st,
		logger:   logger,
		platform: platform,
		slots:    make(chan struct{}, maxConcurrent),
	}
	reg := svc.metrics.reg
	outcome := func(state string) *obs.Counter {
		return reg.Counter("slade_jobs_total", "Jobs by terminal outcome.", obs.L("state", state))
	}
	c := &m.counts
	c.done, c.failed, c.canceled = outcome("done"), outcome("failed"), outcome("canceled")
	c.persisted = reg.Counter("slade_jobs_persisted_total", "Terminal jobs spilled to the durable store.")
	c.recovered = reg.Counter("slade_jobs_recovered_total", "Jobs replayed from the store at boot.")
	m.jobs = newResidents("job", ttl, reg.Counter("slade_jobs_expired_total", "Terminal jobs reaped by the result TTL."),
		func(j *job) (int64, bool) { return j.finished.UnixNano(), j.state.Terminal() })
	c.interrupted = reg.Counter("slade_jobs_interrupted_total", "Run jobs found mid-run at boot and failed as interrupted.")
	c.running = reg.Gauge("slade_jobs_running", "Jobs currently running.")
	c.pending = reg.Gauge("slade_jobs_pending", "Jobs queued for a slot.")
	c.spend = reg.Histogram("slade_executor_job_spend", "Total spend per completed run job.",
		obs.HistogramOpts{Base: 0.01, Growth: 2, Buckets: 30})
	m.execBins = reg.Counter("slade_executor_bins_issued_total", "Bins handed to workers, including retries.")
	m.execBinDuration = reg.Histogram("slade_executor_bin_duration_seconds", "Reported per-bin completion time.", obs.HistogramOpts{})
	m.execRetries = reg.Counter("slade_executor_retries_total", "Bin re-issues after an overtime outcome.")
	m.execTopUps = reg.Counter("slade_executor_topup_rounds_total", "Adaptive top-up rounds executed.")
	m.sseEvents = reg.Counter("slade_sse_events_total", "Job events published to SSE feeds.")
	m.sseSubscribers = reg.Gauge("slade_sse_subscribers", "Open SSE job-event subscriptions.")
	m.registerStore(reg)
	m.replay()
	return m
}

// sweep drops the expired terminal jobs from memory and the store. Records
// with no in-memory twin need no scan here: replay reaps the pre-boot
// expirations and persist cleans up after eviction races, so after
// construction every live record has an in-memory twin.
func (m *JobManager) sweep(now time.Time) {
	m.mu.Lock()
	expired := m.jobs.sweep(now)
	m.mu.Unlock()
	for _, id := range expired {
		m.deleteStored(id)
	}
}

// Submit registers the request and starts it asynchronously, returning the
// job id immediately. Safe for concurrent use; the request (including the
// instance and run payloads) must not be mutated after Submit returns.
func (m *JobManager) Submit(req JobRequest) (string, error) {
	st, err := m.submit(req)
	return st.ID, err
}

// submit is Submit returning the job's snapshot taken under the lock hold
// that registered it — always pending, however fast the job then runs —
// which is what the 202 reply carries.
func (m *JobManager) submit(req JobRequest) (JobStatus, error) {
	if (req.Instance == nil) == (req.Run == nil) {
		return JobStatus{}, fmt.Errorf("service: job needs exactly one of instance or run")
	}
	kind := KindSolve
	solver := req.Solver
	if solver == "" {
		solver = m.svc.DefaultSolver()
	}
	if _, err := m.svc.solver(solver); err != nil {
		return JobStatus{}, err
	}
	var runner executor.BinRunner
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

	ctx, cancel := context.WithCancel(context.Background())
	m.mu.Lock()
	j := &job{
		id:        m.jobs.mint(),
		kind:      kind,
		req:       req,
		state:     JobPending,
		solver:    solver,
		cancel:    cancel,
		runner:    runner,
		submitted: time.Now(),
	}
	j.feed = newJobFeed(j.id, m.sseEvents)
	m.jobs.put(j.id, j)
	m.counts.submitted.Inc()
	m.counts.pending.Inc()
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
	m.counts.pending.Dec()
	m.counts.running.Inc()
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
		if err := m.putJob(marker); err != nil {
			m.logger.Warn("persisting running marker failed", "id", j.id, "err", err)
		}
	}
	// The first event of every job's feed: it started running. Run jobs
	// follow with per-bin progress frames from the executor observer.
	j.feed.publish(JobEvent{State: JobRunning})

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
	if j.req.Run != nil {
		return m.runRun(ctx, j)
	}
	plan, err := m.svc.DecomposeWith(ctx, j.solver, j.req.Instance)
	return plan, nil, err
}

// settle records a job's terminal state and, with a store configured,
// spills the record to it (outside the lock; a slow disk never blocks
// Status calls). It is the only terminal transition a job has.
func (m *JobManager) settle(j *job, plan *core.Plan, report *ExecutionReport, err error) {
	m.mu.Lock()
	m.settleLocked(j, plan, report, err)
}

// settleLocked is settle for a caller that already holds m.mu — which it
// releases before persisting. The terminal frame is published under the
// lock, so whoever sees the job terminal finds that frame on its feed. It
// returns the job's status as of that lock hold.
func (m *JobManager) settleLocked(j *job, plan *core.Plan, report *ExecutionReport, err error) JobStatus {
	if j.state.Terminal() {
		st := j.statusLocked()
		m.mu.Unlock()
		return st
	}
	if j.state == JobRunning {
		m.counts.running.Dec()
	} else {
		m.counts.pending.Dec()
	}
	j.finished = time.Now()
	j.runner = nil // the platform (and any worker pool) is done; free it
	switch {
	case err == nil:
		j.state = JobDone
		j.plan = plan
		j.report = report
		in := j.req.Instance
		if j.req.Run != nil {
			in = j.req.Run.Instance
		}
		if sum, serr := plan.Summarize(in.Bins()); serr == nil {
			j.summary = &sum
		}
		m.counts.done.Inc()
		if report != nil {
			m.counts.runBins.Add(uint64(report.BinsIssued))
			m.counts.runTopUps.Add(uint64(report.TopUpRounds))
			m.counts.spend.Observe(report.Spent)
		}
	case errors.Is(err, context.Canceled):
		j.state = JobCanceled
		m.counts.canceled.Inc()
	default:
		j.state = JobFailed
		j.err = err
		m.counts.failed.Inc()
	}
	if j.cancel != nil {
		j.cancel() // release the context's resources in every terminal path
	}
	m.jobs.enqueue(j.id, j)
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
	st := j.statusLocked()
	j.feed.publish(terminalEvent(st))
	m.mu.Unlock()
	if persist {
		defer m.persistWG.Done()
		m.persist(rec)
	}
	return st
}

// Status returns a snapshot of the job. Safe for concurrent use.
func (m *JobManager) Status(id string) (JobStatus, error) {
	st, _, _, err := m.snapshot(id)
	return st, err
}

// snapshot resolves id, applying lazy TTL expiry, and reads the job's
// status, plan (nil unless done) and event feed in that one lock hold, so
// a handler never sees the job expire between two reads and TTL precision
// does not depend on janitor timing. A job it expires leaves the store
// outside the lock. A job replayed from the store gets its feed here, on
// first read: it starts at seq 1 with the terminal frame rebuilt from the
// record.
func (m *JobManager) snapshot(id string) (JobStatus, *core.Plan, *jobFeed, error) {
	j, err := m.lockJob(id)
	if err != nil {
		return JobStatus{}, nil, nil, err
	}
	st := j.statusLocked()
	if j.feed == nil {
		j.feed = newJobFeed(id, m.sseEvents)
		j.feed.publish(terminalEvent(st))
	}
	plan, feed := j.plan, j.feed
	m.mu.Unlock()
	return st, plan, feed, nil
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

// lockJob takes m.mu and resolves id, applying lazy TTL expiry. An unknown
// or expired id releases the lock, deletes an expired job's record and
// returns ErrUnknownJob.
func (m *JobManager) lockJob(id string) (*job, error) {
	m.mu.Lock()
	j, ok, reaped := m.jobs.lookup(id, time.Now())
	if !ok {
		m.mu.Unlock()
		if reaped {
			m.deleteStored(id)
		}
		return nil, fmt.Errorf("%w %q", ErrUnknownJob, id)
	}
	return j, nil
}

// Cancel stops a pending or running job. Canceling a terminal job is an
// error, and an id past its result TTL is unknown, as it is to a read;
// canceling a running job is cooperative (the solver observes the
// context while it waits for a solve slot, the executor between bins) and
// the job settles as Canceled once it stops.
// It returns the job's status as of the lock hold that canceled it — a
// pending job's settled one — so a short result TTL cannot expire the job
// before its caller reads it.
// Safe for concurrent use, including concurrent Cancels of the same job.
func (m *JobManager) Cancel(id string) (JobStatus, error) {
	j, err := m.lockJob(id)
	if err != nil {
		return JobStatus{}, err
	}
	if j.state.Terminal() {
		m.mu.Unlock()
		return JobStatus{}, fmt.Errorf("service: job %s already %s", id, j.state)
	}
	if j.state == JobPending {
		// Settled here, under the same lock hold that saw it pending, so
		// it can never start; its run goroutine finds it terminal.
		return m.settleLocked(j, nil, nil, context.Canceled), nil
	}
	st := j.statusLocked()
	m.mu.Unlock()
	j.cancel()
	return st, nil
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

// Stats returns a snapshot of job counters, read off their instruments
// without the manager's lock, so its cost does not grow with the jobs
// held. Safe for concurrent use.
func (m *JobManager) Stats() JobStats {
	c := &m.counts
	return JobStats{
		Submitted:       c.submitted.Value(),
		Running:         int(c.running.Value()),
		Pending:         int(c.pending.Value()),
		Done:            c.done.Value(),
		Failed:          c.failed.Value(),
		Canceled:        c.canceled.Value(),
		Persisted:       c.persisted.Value(),
		Recovered:       c.recovered.Value(),
		Expired:         m.jobs.expired.Value(),
		RunsInterrupted: c.interrupted.Value(),
		Runs:            c.spend.Count(),
		RunBinsIssued:   c.runBins.Value(),
		RunTopUpRounds:  c.runTopUps.Value(),
		RunSpend:        c.spend.Sum(),
	}
}
