package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/store"
)

// This file is the job manager's persistence: terminal jobs spill to the
// durable store as records, a new manager replays them, and every store
// access is timed by the slade_store_* instruments the manager registers.

// storeOps enumerates the operation labels of the store instrument
// families; registering them up front makes the store series visible on
// /metrics before traffic. get_job's series never move: the service
// never reads one record back, replay lists them all.
var storeOps = []string{"put_job", "get_job", "list_jobs", "delete_job"}

// registerStore registers the slade_store_* series on reg.
func (m *JobManager) registerStore(reg *obs.Registry) {
	m.storeDuration = make(map[string]*obs.Histogram, len(storeOps))
	m.storeErrors = make(map[string]*obs.Counter, len(storeOps))
	for _, op := range storeOps {
		m.storeDuration[op] = reg.Histogram("slade_store_op_duration_seconds", "Durable store operation latency.", obs.HistogramOpts{}, obs.L("op", op))
		m.storeErrors[op] = reg.Counter("slade_store_errors_total", "Durable store operation failures (not-found excluded).", obs.L("op", op))
	}
}

// observeStore records one store access begun at start. Not-found is
// normal control flow, not a store failure.
func (m *JobManager) observeStore(op string, start time.Time, err error) {
	m.storeDuration[op].ObserveSince(start)
	if err != nil && !errors.Is(err, store.ErrNotFound) {
		m.storeErrors[op].Inc()
	}
}

// putJob writes rec to the store, timed: spills, running markers and
// interrupted jobs all go through it.
func (m *JobManager) putJob(rec store.JobRecord) error {
	start := time.Now()
	err := m.store.PutJob(rec)
	m.observeStore("put_job", start, err)
	return err
}

// replay loads every readable terminal job record from the store into
// memory, so results submitted before a restart remain queryable. Records
// that fail to decode are skipped with a warning; ids are re-parsed so
// fresh submissions never collide with recovered ones.
func (m *JobManager) replay() {
	if m.store == nil {
		return
	}
	start := time.Now()
	recs, err := m.store.ListJobs()
	m.observeStore("list_jobs", start, err)
	if err != nil {
		m.logger.Warn("replaying job store failed", "err", err)
		return
	}
	now := time.Now()
	var expired []string
	var live, interrupted []*job
	m.mu.Lock()
	for _, rec := range recs {
		j, wasInterrupted, err := jobFromRecord(rec, now)
		if err != nil {
			m.logger.Warn("skipping unreadable job record", "id", rec.ID, "err", err)
			continue
		}
		if ttl := m.jobs.ttl; ttl > 0 && now.Sub(j.finished) >= ttl {
			expired = append(expired, j.id) // expired while the process was down
			continue
		}
		live = append(live, j)
		m.counts.recovered.Inc()
		if wasInterrupted {
			m.counts.interrupted.Inc()
			interrupted = append(interrupted, j)
		}
		// Keep fresh ids strictly after every recovered one.
		m.jobs.seen(j.id)
	}
	// The expiry queue holds jobs in finish order, which the records'
	// order is not.
	slices.SortFunc(live, func(a, b *job) int { return a.finished.Compare(b.finished) })
	for _, j := range live {
		m.jobs.put(j.id, j)
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
		if err := m.putJob(rec); err != nil {
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
			j.kind = kindStream
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
		var sum core.Summary
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
		// The plan's own encoder, not json.Marshal: its bytes are already
		// compact, and json.Marshal would scan and copy them twice more.
		data, err := j.plan.MarshalJSON()
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
// it re-checks that the job is still live: a concurrent TTL expiry may
// have raced the spill, deleted from the store before the record landed,
// and would otherwise see the job resurrected at the next replay. Either
// ordering now ends with the record gone — the later of the two
// operations observes the other's effect under m.mu and deletes.
func (m *JobManager) persist(rec store.JobRecord) {
	if err := m.putJob(rec); err != nil {
		m.logger.Warn("persisting job failed", "id", rec.ID, "err", err)
		return
	}
	m.mu.Lock()
	_, live := m.jobs.byID[rec.ID]
	if live {
		m.counts.persisted.Inc()
	}
	m.mu.Unlock()
	if !live {
		m.deleteStored(rec.ID)
	}
}

// deleteStored removes a job record from the store, tolerating absence.
func (m *JobManager) deleteStored(id string) {
	if m.store == nil {
		return
	}
	start := time.Now()
	err := m.store.DeleteJob(id)
	m.observeStore("delete_job", start, err)
	if err != nil && !errors.Is(err, store.ErrNotFound) {
		m.logger.Warn("deleting stored job failed", "id", id, "err", err)
	}
}
