package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
)

// This file is the live job-event surface: a per-job broadcast feed fed
// from the executor's Observer seam and the job manager's state
// transitions, served as Server-Sent Events by GET /v1/jobs/{id}/events.
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
	Summary *PlanSummary     `json:"summary,omitempty"`
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

// jobEventObserver is the executor.Observer of every run job: it feeds
// the executor's callbacks into both the metric bundle and the job's
// event feed. Executor callbacks run inline on the single executing
// goroutine, so plain fields need no synchronization.
type jobEventObserver struct {
	metrics *serviceMetrics
	feed    *jobFeed

	topUps      int
	bins        int
	spent, mass float64
	emitted     bool
	lastEmit    time.Time
}

func (o *jobEventObserver) BinIssued(d time.Duration) {
	o.metrics.execBinsIssued.Inc()
	o.metrics.execBinDuration.ObserveDuration(d)
}

func (o *jobEventObserver) BinRetried() { o.metrics.execRetries.Inc() }

func (o *jobEventObserver) TopUpRound() {
	o.metrics.execTopUpRounds.Inc()
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

// lastEventID extracts the resume cursor: the standard Last-Event-ID
// header, with ?last_event_id= as a curl-friendly fallback.
func lastEventID(r *http.Request) uint64 {
	v := r.Header.Get("Last-Event-ID")
	if v == "" {
		v = r.URL.Query().Get("last_event_id")
	}
	n, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// writeSSEFrame renders one frame in SSE wire form: the sequence number
// as the event id, the state as the event name ("progress" while the job
// runs, the terminal state name on the final frame), the JSON payload as
// data.
func writeSSEFrame(w io.Writer, ev JobEvent) error {
	data, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	name := "progress"
	if ev.State.Terminal() {
		name = string(ev.State)
	}
	_, err = fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, name, data)
	return err
}

// handleJobEvents serves GET /v1/jobs/{id}/events: an SSE stream of the
// job's progress frames ending with its terminal frame. The handler
// returns when the terminal frame has been delivered, the client goes
// away, or the service shuts down; heartbeat comments keep idle
// connections alive through buffering proxies (see docs/OPERATIONS.md).
func handleJobEvents(s *Service, w http.ResponseWriter, r *http.Request) {
	_, _, feed, err := s.Jobs().snapshot(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusInternalServerError, fmt.Errorf("service: response writer cannot stream"))
		return
	}
	last := lastEventID(r)

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	// Tell nginx-style proxies not to buffer the stream (OPERATIONS.md).
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	s.metrics.sseSubscribers.Inc()
	defer s.metrics.sseSubscribers.Dec()

	ticker := time.NewTicker(s.sseHeartbeat)
	defer ticker.Stop()
	for {
		evs, terminal, notify := feed.since(last)
		for _, ev := range evs {
			if err := writeSSEFrame(w, ev); err != nil {
				return // client gone
			}
			last = ev.Seq
		}
		if len(evs) > 0 {
			flusher.Flush()
		}
		if terminal {
			return // the terminal frame was the last one delivered
		}
		select {
		case <-notify:
		case <-ticker.C:
			if _, err := io.WriteString(w, ": hb\n\n"); err != nil {
				return
			}
			flusher.Flush()
		case <-r.Context().Done():
			return
		case <-s.closed:
			return
		}
	}
}
