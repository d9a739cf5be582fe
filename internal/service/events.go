package service

import (
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// This file is the live job-event surface: a per-job broadcast feed fed
// from the executor's Observer seam and the job manager's state
// transitions, served as Server-Sent Events by GET /v1/jobs/{id}/events
// (handleJobEvents in api.go).
// Every frame carries the running totals (bins issued, spend, delivered
// mass, top-up rounds) plus the job state; the final frame is the job's
// terminal status with its summary/report attached. Subscribers resume
// with Last-Event-ID: recent frames replay from a bounded per-job ring,
// and a job replayed from the store after a restart gets a fresh feed
// holding its terminal frame, synthesized from the job record.

// DefaultSSEHeartbeat is the comment-frame interval that keeps idle SSE
// connections alive through proxies; Config.SSEHeartbeat overrides it.
const DefaultSSEHeartbeat = 15 * time.Second

// eventBufferCap bounds each job's replay ring. A reconnecting client
// replays at most this many recent frames; older frames are gone (the
// terminal frame always survives, because publishing stops at terminal).
const eventBufferCap = 256

// progressEventInterval throttles per-bin progress frames: the first
// frame of a run is always published, later ones at most this often
// (state transitions and top-up rounds always publish). A var so tests
// can shrink it.
var progressEventInterval = 100 * time.Millisecond

// JobEvent is one frame of a job's event stream — the data payload of
// one SSE frame.
type JobEvent struct {
	// Seq is the frame's sequence number within its job, from 1; it is
	// the SSE event id, echoed back via Last-Event-ID on reconnect.
	Seq   uint64 `json:"seq"`
	JobID string `json:"job_id"`
	// State is the job state at the time of the frame; a terminal state
	// marks the stream's final frame.
	State JobState `json:"state"`
	// Running totals at frame time (run jobs; zero for solve jobs
	// until the terminal frame fills what it can from the report).
	BinsIssued    int     `json:"bins_issued"`
	TopUpRounds   int     `json:"top_up_rounds"`
	Spent         float64 `json:"spent"`
	DeliveredMass float64 `json:"delivered_mass"`
	// Terminal-frame extras, mirroring JobStatus.
	Error   string           `json:"error,omitempty"`
	Summary *core.Summary    `json:"summary,omitempty"`
	Report  *ExecutionReport `json:"report,omitempty"`
}

// jobFeed is one job's event ring plus its subscriber wakeup channel.
// The job owns it (job.feed), so a feed lives exactly as long as its job.
type jobFeed struct {
	jobID string
	// published is slade_sse_events_total.
	published *obs.Counter

	mu       sync.Mutex
	events   []JobEvent
	nextSeq  uint64
	terminal bool
	// notify is closed (and replaced) on every publish; subscribers grab
	// the current channel together with the events they have not seen,
	// under one lock, so no publish can fall between read and wait.
	notify chan struct{}
}

func newJobFeed(jobID string, published *obs.Counter) *jobFeed {
	return &jobFeed{jobID: jobID, published: published, nextSeq: 1, notify: make(chan struct{})}
}

// publish appends one frame, stamping the job id and assigning its
// sequence number. Frames after the terminal frame are dropped: the
// terminal frame is final by contract.
func (f *jobFeed) publish(ev JobEvent) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.terminal {
		return
	}
	ev.JobID = f.jobID
	ev.Seq = f.nextSeq
	f.nextSeq++
	f.events = append(f.events, ev)
	if len(f.events) > eventBufferCap {
		f.events = append(f.events[:0], f.events[len(f.events)-eventBufferCap:]...)
	}
	if ev.State.Terminal() {
		f.terminal = true
	}
	close(f.notify)
	f.notify = make(chan struct{})
	f.published.Inc()
}

// since returns every buffered frame with Seq > last, whether the feed
// has published its terminal frame, and the wakeup channel to wait on —
// all under one lock, so a publish between the read and the wait is
// impossible to miss. A cursor past the newest frame was issued by an
// earlier feed of the job (one lost to a restart), so the feed replays
// from its start: such a client still gets its terminal frame.
func (f *jobFeed) since(last uint64) ([]JobEvent, bool, chan struct{}) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if last >= f.nextSeq {
		last = 0
	}
	var out []JobEvent
	for _, ev := range f.events {
		if ev.Seq > last {
			out = append(out, ev)
		}
	}
	return out, f.terminal, f.notify
}

// terminalEvent builds a terminal job's final SSE frame from its status:
// the one builder for both a settling job and a job replayed from the
// store, whose feed starts at seq 1 with this frame.
func terminalEvent(st JobStatus) JobEvent {
	ev := JobEvent{
		State:   st.State,
		Error:   st.Error,
		Summary: st.Summary,
		Report:  st.Report,
	}
	if st.Report != nil {
		ev.BinsIssued = st.Report.BinsIssued
		ev.TopUpRounds = st.Report.TopUpRounds
		ev.Spent = st.Report.Spent
		ev.DeliveredMass = st.Report.DeliveredMass
	}
	return ev
}

// subscribe is snapshot's feed for a follower, counted on
// slade_sse_subscribers until the follower calls release; after an error
// there is nothing to release.
func (m *JobManager) subscribe(id string) (feed *jobFeed, release func(), err error) {
	if _, _, feed, err = m.snapshot(id); err == nil {
		m.sseSubscribers.Inc()
	}
	return feed, m.sseSubscribers.Dec, err
}

// jobEventObserver is the executor.Observer of every run job: it feeds
// the executor's callbacks into both the manager's slade_executor_*
// instruments and the job's event feed. Executor callbacks run inline on
// the single executing goroutine, so plain fields need no synchronization.
type jobEventObserver struct {
	jobs *JobManager
	feed *jobFeed

	topUps      int
	bins        int
	spent, mass float64
	emitted     bool
	lastEmit    time.Time
}

func (o *jobEventObserver) BinIssued(d time.Duration) {
	o.jobs.execBins.Inc()
	o.jobs.execBinDuration.ObserveDuration(d)
}

func (o *jobEventObserver) BinRetried() { o.jobs.execRetries.Inc() }

func (o *jobEventObserver) TopUpRound() {
	o.jobs.execTopUps.Inc()
	o.topUps++
	o.emit(true) // round boundaries always publish
}

// Progress publishes a running-totals frame: the first frame of a
// run publishes unconditionally (so even the fastest job yields at least
// one progress frame), later frames at most every progressEventInterval.
func (o *jobEventObserver) Progress(spent, mass float64, bins int) {
	o.spent, o.mass, o.bins = spent, mass, bins
	o.emit(!o.emitted)
}

func (o *jobEventObserver) emit(force bool) {
	now := time.Now()
	if !force && now.Sub(o.lastEmit) < progressEventInterval {
		return
	}
	o.emitted = true
	o.lastEmit = now
	o.feed.publish(JobEvent{
		State:         JobRunning,
		BinsIssued:    o.bins,
		TopUpRounds:   o.topUps,
		Spent:         o.spent,
		DeliveredMass: o.mass,
	})
}
