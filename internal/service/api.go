package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
)

// MaxRequestBytes bounds decoded request bodies (64 MiB covers ~4M-task
// heterogeneous instances).
const MaxRequestBytes = 64 << 20

// NewHandler returns the service's HTTP API:
//
//	POST   /v1/decompose            synchronous decomposition (NDJSON plan body via Accept: application/x-ndjson)
//	POST   /v1/decompose/batch      many instances over one shared menu, coalesced into one batch window
//	POST   /v1/jobs                 submit an async job (solve or run)
//	GET    /v1/jobs/{id}            job status (+ result plan with ?include_plan=true)
//	GET    /v1/jobs/{id}/events     live job progress as Server-Sent Events (Last-Event-ID resume)
//	DELETE /v1/jobs/{id}            cancel a pending or running job (aborts a run mid-flight)
//	POST   /v1/streams              open an incremental-ingest planning session
//	POST   /v1/streams/{id}/tasks   append arriving task ids (full blocks plan immediately)
//	POST   /v1/streams/{id}/flush   plan the remainder and seal the merged plan
//	GET    /v1/streams/{id}         session status (+ merged plan after flush)
//	DELETE /v1/streams/{id}         drop a session
//	GET    /v1/healthz              readiness probe (uptime, build info, store writability)
//	GET    /v1/stats                request / latency / cache / job / persistence counters
//	GET    /metrics                 Prometheus text exposition of every pipeline metric
//
// Every route passes through the instrumentation middleware: request ids
// (X-Request-ID, inbound value respected), per-endpoint status-class and
// latency metrics, structured request logging, and — on the two
// solve-submitting routes, when Config.MaxQueueWait is set — queue-wait
// admission control that sheds with 429 + Retry-After before the solver
// pool saturates.
//
// Everything is stdlib JSON over the stdlib mux; the handler is safe for
// concurrent use — it is stateless itself and delegates to the
// concurrency-safe Service. docs/API.md is the complete wire reference
// (schemas, status codes, error shapes); docs/OPERATIONS.md has curl
// examples and the monitoring guide.
func NewHandler(s *Service) http.Handler {
	mux := http.NewServeMux()
	handle := func(method, route string, shed bool, h http.HandlerFunc) {
		rm := s.metrics.route(method, route)
		mux.Handle(method+" "+route, s.instrument(rm, shed, h))
	}
	handle("POST", "/v1/decompose", true, func(w http.ResponseWriter, r *http.Request) {
		handleDecompose(s, w, r)
	})
	handle("POST", "/v1/decompose/batch", true, func(w http.ResponseWriter, r *http.Request) {
		handleDecomposeBatch(s, w, r)
	})
	handle("POST", "/v1/jobs", true, func(w http.ResponseWriter, r *http.Request) {
		handleSubmitJob(s, w, r)
	})
	handle("GET", "/v1/jobs/{id}", false, func(w http.ResponseWriter, r *http.Request) {
		handleJobStatus(s, w, r)
	})
	handle("GET", "/v1/jobs/{id}/events", false, func(w http.ResponseWriter, r *http.Request) {
		handleJobEvents(s, w, r)
	})
	handle("DELETE", "/v1/jobs/{id}", false, func(w http.ResponseWriter, r *http.Request) {
		handleCancelJob(s, w, r)
	})
	handle("POST", "/v1/streams", true, func(w http.ResponseWriter, r *http.Request) {
		handleOpenStream(s, w, r)
	})
	handle("POST", "/v1/streams/{id}/tasks", true, func(w http.ResponseWriter, r *http.Request) {
		handleStreamAppend(s, w, r)
	})
	handle("POST", "/v1/streams/{id}/flush", false, func(w http.ResponseWriter, r *http.Request) {
		handleStreamFlush(s, w, r)
	})
	handle("GET", "/v1/streams/{id}", false, func(w http.ResponseWriter, r *http.Request) {
		handleStreamStatus(s, w, r)
	})
	handle("DELETE", "/v1/streams/{id}", false, func(w http.ResponseWriter, r *http.Request) {
		handleStreamDelete(s, w, r)
	})
	handle("GET", "/v1/healthz", false, func(w http.ResponseWriter, r *http.Request) {
		h := s.Health()
		code := http.StatusOK
		if h.Status != "ok" {
			code = http.StatusServiceUnavailable
		}
		writeJSON(w, code, h)
	})
	handle("GET", "/v1/stats", false, func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	handle("GET", "/metrics", false, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", MetricsContentType)
		_, _ = w.Write(s.Metrics())
	})
	return mux
}

// MaxTasks bounds the tasks one call may ask to decompose — n,
// len(thresholds), or their sum over a batch call. An instance holds a
// threshold per task and a plan an id per task, so without a bound a
// hundred-byte body could demand terabytes; 2^24 is above every workload
// the ledger, the figures and the alloc budgets run.
const MaxTasks = 1 << 24

// MaxBatchInstances bounds the members of one batch call. Each member is
// solved on a goroutine of its own, since the batcher needs them
// concurrent to coalesce them, and a zero-task member takes no room under
// MaxTasks, so without this bound a full body would start millions of
// goroutines. 1,024 is 16 × the ledger's 64-member batches and
// 4 × DefaultBatchMaxRequests.
const MaxBatchInstances = 1024

// instanceShape is the wire form of an instance over a known menu:
// either a homogeneous (n, threshold) pair or per-task thresholds.
type instanceShape struct {
	N          int       `json:"n,omitempty"`
	Threshold  *float64  `json:"threshold,omitempty"`
	Thresholds []float64 `json:"thresholds,omitempty"`
}

// build validates the shape and builds its core.Instance over bins,
// refusing more than room tasks: MaxTasks on the single-instance routes,
// what earlier members left of it on a batch call.
func (sh *instanceShape) build(bins core.BinSet, room int) (*core.Instance, error) {
	if sh.N > room || len(sh.Thresholds) > room {
		return nil, fmt.Errorf("too many tasks: a call may carry at most %d", MaxTasks)
	}
	if len(sh.Thresholds) > 0 {
		if sh.Threshold != nil || sh.N != 0 {
			return nil, fmt.Errorf("give either thresholds or (n, threshold), not both")
		}
		return core.NewHeterogeneous(bins, sh.Thresholds)
	}
	if sh.Threshold == nil {
		return nil, fmt.Errorf("missing threshold(s)")
	}
	return core.NewHomogeneous(bins, sh.N, *sh.Threshold)
}

// instanceRequest is the wire form of a problem instance: a menu plus
// its shape.
type instanceRequest struct {
	Bins []core.TaskBin `json:"bins"`
	instanceShape
}

// decomposeRequest is the POST /v1/decompose body.
type decomposeRequest struct {
	instanceRequest
	// Solver names a registered solver; empty selects the default.
	Solver string `json:"solver,omitempty"`
	// IncludePlan embeds the full plan (all bin uses) in the response;
	// summaries are returned regardless.
	IncludePlan bool `json:"include_plan,omitempty"`
}

// decomposeResponse is the POST /v1/decompose reply. Handlers never set
// Plan: writePlanStreamed streams it into the trailing field off the
// plan's runs; the field is the wire shape clients decode.
type decomposeResponse struct {
	Solver    string        `json:"solver"`
	N         int           `json:"n"`
	Summary   core.Summary  `json:"summary"`
	ElapsedMS float64       `json:"elapsed_ms"`
	Plan      []core.BinUse `json:"plan,omitempty"`
}

func handleDecompose(s *Service, w http.ResponseWriter, r *http.Request) {
	var req decomposeRequest
	menu, ok := decodeMenuBody(w, r, s.menus, &req, &req.Bins)
	if !ok {
		return
	}
	in, err := menu.instance(&req.instanceShape)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	name := req.Solver
	if name == "" {
		name = s.DefaultSolver()
	}
	start := time.Now()
	plan, sum, err := s.DecomposeSummarized(r.Context(), name, in)
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	resp := decomposeResponse{
		Solver:    name,
		N:         in.N(),
		Summary:   sum,
		ElapsedMS: float64(time.Since(start).Microseconds()) / 1e3,
	}
	if req.IncludePlan {
		// Content negotiation: an Accept of application/x-ndjson streams
		// the plan body one use per line (the summary header first), never
		// materializing the plan.
		if wantsNDJSON(r) {
			writeDecomposeNDJSON(w, resp, plan)
			return
		}
		writePlanStreamed(w, http.StatusOK, resp, plan)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// wantsNDJSON reports whether the client negotiated the NDJSON plan form.
func wantsNDJSON(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), "application/x-ndjson")
}

// writeDecomposeNDJSON streams a decompose reply as NDJSON: the first
// line is the plan-less decomposeResponse (solver, n, summary, timing),
// each following line one bin use — O(runs) server memory however large
// the plan is.
func writeDecomposeNDJSON(w http.ResponseWriter, resp decomposeResponse, plan *core.Plan) {
	data, err := json.Marshal(resp)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(append(data, '\n')); err != nil {
		return
	}
	_ = plan.EncodeUsesNDJSON(w) // mid-stream failure means the client went away
}

// batchDecomposeRequest is the POST /v1/decompose/batch body: one shared
// menu solved for many instances. With batching enabled the concurrent
// member solves coalesce into a single batch window, so same-threshold
// members share one cache lookup — and each gets exactly its solo plan.
type batchDecomposeRequest struct {
	Bins      []core.TaskBin  `json:"bins"`
	Solver    string          `json:"solver,omitempty"`
	Instances []instanceShape `json:"instances"`
}

// batchResult is one member's reply, in request order.
type batchResult struct {
	N       int          `json:"n"`
	Summary core.Summary `json:"summary"`
}

// batchDecomposeResponse is the POST /v1/decompose/batch reply.
type batchDecomposeResponse struct {
	Solver    string        `json:"solver"`
	Instances int           `json:"instances"`
	Results   []batchResult `json:"results"`
	ElapsedMS float64       `json:"elapsed_ms"`
}

func handleDecomposeBatch(s *Service, w http.ResponseWriter, r *http.Request) {
	var req batchDecomposeRequest
	menu, ok := decodeMenuBody(w, r, s.menus, &req, &req.Bins)
	if !ok {
		return
	}
	if len(req.Instances) == 0 {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("batch needs at least one instance"))
		return
	}
	if len(req.Instances) > MaxBatchInstances {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("too many instances: a batch may carry at most %d", MaxBatchInstances))
		return
	}
	bins, err := menu.set, menu.err
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	// Validate every member before solving any: a batch either runs
	// whole or rejects whole, so a typo in member 7 cannot waste the
	// first six solves.
	ins := make([]*core.Instance, len(req.Instances))
	room := MaxTasks
	for i := range req.Instances {
		in, err := req.Instances[i].build(bins, room)
		if err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("instance %d: %w", i, err))
			return
		}
		ins[i] = in
		room -= in.N()
	}
	name := req.Solver
	if name == "" {
		name = s.DefaultSolver()
	}
	start := time.Now()
	// Solve concurrently so the request batcher (when enabled) coalesces
	// the members into one accumulation window; without a batcher this is
	// plain fan-out over the solver pool.
	m := &batchMembers{s: s, ctx: r.Context(), name: name, ins: ins,
		results: make([]batchResult, len(ins)), errs: make([]error, len(ins))}
	m.wg.Add(len(ins))
	for i := range ins {
		go m.solve(i)
	}
	m.wg.Wait()
	for i, err := range m.errs {
		if err != nil {
			writeErr(w, statusFor(err), fmt.Errorf("instance %d: %w", i, err))
			return
		}
	}
	writeJSON(w, http.StatusOK, batchDecomposeResponse{
		Solver:    name,
		Instances: len(ins),
		Results:   m.results,
		ElapsedMS: float64(time.Since(start).Microseconds()) / 1e3,
	})
}

// batchMembers is one batch call's fan-out: member i solves ins[i] and
// writes its summary straight into results[i], the reply's slot, and its
// error into errs[i]. The member goroutines share it, so each one's
// closure holds a pointer and an index.
type batchMembers struct {
	s       *Service
	ctx     context.Context
	name    string
	ins     []*core.Instance
	results []batchResult
	errs    []error
	wg      sync.WaitGroup
}

func (m *batchMembers) solve(i int) {
	defer m.wg.Done()
	m.results[i].N = m.ins[i].N()
	_, m.results[i].Summary, m.errs[i] = m.s.DecomposeSummarized(m.ctx, m.name, m.ins[i])
}

// jobRequest is the POST /v1/jobs body. Kind selects the payload: "solve"
// (default) uses the instance fields, "run" the instance fields plus the
// optional run field.
type jobRequest struct {
	Kind string `json:"kind,omitempty"`
	decomposeRequest
	Run *runRequest `json:"run,omitempty"`
}

// runRequest is the wire form of a run job's execution spec. Every field
// is optional: the zero value runs on the Jelly platform at seed 0 with
// the executor's default budgets and top-ups enabled.
type runRequest struct {
	// Platform model ("jelly" default, "smic") and its RNG seed.
	Platform string `json:"platform,omitempty"`
	Seed     int64  `json:"seed,omitempty"`
	// PoolSize > 0 routes bins through a persistent worker population
	// (capped at MaxPoolSize); SpammerFraction and SkillSigma tune it —
	// zero keeps the defaults, negative means explicitly zero.
	PoolSize        int     `json:"pool_size,omitempty"`
	SpammerFraction float64 `json:"spammer_fraction,omitempty"`
	SkillSigma      float64 `json:"skill_sigma,omitempty"`
	// PlatformKind selects where bins are issued: "sim" (default,
	// in-process crowdsim) or "remote" (the daemon's one marketplace
	// client, configured at startup via -platform-url).
	PlatformKind string `json:"platform_kind,omitempty"`
	// Executor budgets: zero selects the defaults (2 retries, 2 top-up
	// rounds, difficulty 2); negative retries/top-ups mean explicitly none.
	Difficulty int   `json:"difficulty,omitempty"`
	MaxRetries int   `json:"max_retries,omitempty"`
	TopUp      *bool `json:"top_up,omitempty"` // default true
	MaxTopUps  int   `json:"max_top_ups,omitempty"`
	// Ground truth: an explicit per-task label vector, or a positive rate
	// to draw labels from (zero selects the default rate, negative means
	// no positives).
	Truth        []bool  `json:"truth,omitempty"`
	PositiveRate float64 `json:"positive_rate,omitempty"`
}

// runJob converts the wire form for the instance.
func (rr *runRequest) runJob(in *core.Instance) *RunJob {
	rj := &RunJob{
		Instance: in,
		Platform: PlatformSpec{
			Model:           rr.Platform,
			Seed:            rr.Seed,
			PoolSize:        rr.PoolSize,
			SpammerFraction: rr.SpammerFraction,
			SkillSigma:      rr.SkillSigma,
			Kind:            rr.PlatformKind,
		},
		Truth:        rr.Truth,
		PositiveRate: rr.PositiveRate,
	}
	rj.Options.Difficulty = rr.Difficulty
	rj.Options.MaxRetries = rr.MaxRetries
	rj.Options.MaxTopUps = rr.MaxTopUps
	rj.Options.TopUp = rr.TopUp == nil || *rr.TopUp
	return rj
}

func handleSubmitJob(s *Service, w http.ResponseWriter, r *http.Request) {
	var req jobRequest
	menu, ok := decodeMenuBody(w, r, s.menus, &req, &req.Bins)
	if !ok {
		return
	}
	kind := req.Kind
	// A run payload on another kind is a client mistake (likely a kind
	// typo); executing something other than what the body describes would
	// be worse than rejecting it.
	if req.Run != nil && kind != KindRun {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("run payload needs kind %q", KindRun))
		return
	}
	jr := JobRequest{Solver: req.Solver}
	switch kind {
	case KindRun:
		in, err := menu.instance(&req.instanceShape)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		rr := req.Run
		if rr == nil {
			rr = &runRequest{} // a bare run job: all defaults
		}
		jr.Run = rr.runJob(in)
	case "", KindSolve:
		in, err := menu.instance(&req.instanceShape)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		jr.Instance = in
	default:
		writeErr(w, http.StatusBadRequest, fmt.Errorf("unknown job kind %q", kind))
		return
	}
	st, err := s.Jobs().submit(jr)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

// jobStatusResponse augments JobStatus with the optional full plan
// (streamed by writePlanStreamed, like decomposeResponse.Plan).
type jobStatusResponse struct {
	JobStatus
	Plan []core.BinUse `json:"plan,omitempty"`
}

func handleJobStatus(s *Service, w http.ResponseWriter, r *http.Request) {
	st, plan, _, err := s.Jobs().snapshot(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	resp := jobStatusResponse{JobStatus: st}
	if st.State == JobDone && r.URL.Query().Get("include_plan") == "true" {
		writePlanStreamed(w, http.StatusOK, resp, plan)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// writePlanStreamed writes resp — a struct whose final field is an
// omitted-when-empty "plan" — with the plan's uses streamed straight off
// its runs into that trailing field. The bytes are identical to
// encoding/json over resp with Plan = plan.Materialized() (pinned by
// test), but the server memory stays O(runs) however many assignments
// the plan has.
func writePlanStreamed(w http.ResponseWriter, code int, resp any, plan *core.Plan) {
	if plan.NumUses() == 0 {
		// Materializing would yield nothing and "omitempty" would drop
		// the field; the plain path already writes those bytes.
		writeJSON(w, code, resp)
		return
	}
	data, err := json.Marshal(resp)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	// Splice: strip the closing brace, stream the plan field, close the
	// object, and restore writeJSON's trailing newline.
	if _, err := w.Write(data[:len(data)-1]); err != nil {
		return
	}
	if _, err := io.WriteString(w, `,"plan":`); err != nil {
		return
	}
	if err := plan.EncodeUses(w); err != nil {
		return // client went away mid-stream; nothing to salvage
	}
	_, _ = io.WriteString(w, "}\n")
}

func handleCancelJob(s *Service, w http.ResponseWriter, r *http.Request) {
	st, err := s.Jobs().Cancel(r.PathValue("id"))
	if err != nil {
		code := http.StatusConflict // terminal job: cancel conflicts with its state
		if errors.Is(err, ErrUnknownJob) {
			code = http.StatusNotFound
		}
		writeErr(w, code, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
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
	feed, release, err := s.jobs.subscribe(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	defer release()
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
	menu, ok := decodeMenuBody(w, r, s.menus, &req, &req.Bins)
	if !ok {
		return
	}
	bins, err := menu.set, menu.err
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
	st, err := s.streams.open(bins, req.Threshold)
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusCreated, st)
}

func handleStreamAppend(s *Service, w http.ResponseWriter, r *http.Request) {
	var req streamAppendRequest
	if !decodeBody(w, r, &req) {
		return
	}
	st, _, err := s.streams.do(r.PathValue("id"), func(ss *streamSession) error { return s.streams.appendLocked(ss, req.Tasks) })
	if err != nil {
		writeErr(w, streamErrStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func handleStreamFlush(s *Service, w http.ResponseWriter, r *http.Request) {
	st, _, err := s.streams.do(r.PathValue("id"), s.streams.flushLocked)
	if err != nil {
		writeErr(w, streamErrStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func handleStreamStatus(s *Service, w http.ResponseWriter, r *http.Request) {
	st, merged, err := s.streams.do(r.PathValue("id"), nil)
	if err != nil {
		writeErr(w, streamErrStatus(err), err)
		return
	}
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
		writeErr(w, streamErrStatus(err), err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// streamErrStatus maps session errors: an unknown id to 404, a
// flushed-conflict to 409, client mistakes (duplicate ids, a full
// session) to 400, the rest — summarize invariant breaks, solver-side
// failures — through statusFor.
func streamErrStatus(err error) int {
	switch {
	case errors.Is(err, ErrUnknownStream):
		return http.StatusNotFound
	case errors.Is(err, errStreamFlushed):
		return http.StatusConflict
	case errors.Is(err, errDuplicateTask), errors.Is(err, errStreamFull):
		return http.StatusBadRequest
	}
	return statusFor(err)
}

// decodeBody decodes a JSON request body — one JSON value, optionally
// followed by whitespace — into dst, writing the error response itself on
// failure.
func decodeBody(w http.ResponseWriter, r *http.Request, dst any) bool {
	return decodeFrom(w, http.MaxBytesReader(w, r.Body, MaxRequestBytes), dst)
}

// statusCanceled is the nginx-convention 499 "client closed request";
// net/http has no constant for it.
const statusCanceled = 499

// statusFor maps a solve error to an HTTP status: context cancellations
// (the client went away mid-solve) surface as 499, server-side
// summarize failures as 500, everything else as 422 (the instance was
// well-formed JSON but unsolvable — e.g. unknown solver or an
// infeasible menu).
func statusFor(err error) int {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return statusCanceled
	}
	if errors.Is(err, errSummarize) {
		return http.StatusInternalServerError
	}
	return http.StatusUnprocessableEntity
}

// writeJSON writes v as a JSON response.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// errorDetail is the unified error envelope every route returns:
// a stable machine-readable code, the human message, and the request id
// (from the X-Request-ID the middleware minted) for log correlation.
type errorDetail struct {
	Code      string `json:"code"`
	Message   string `json:"message"`
	RequestID string `json:"request_id,omitempty"`
}

// errorBody is the error response wire form.
type errorBody struct {
	Error errorDetail `json:"error"`
}

// errorCode names the machine-readable class of an HTTP error status.
func errorCode(code int) string {
	switch {
	case code == http.StatusNotFound:
		return "not_found"
	case code == http.StatusConflict:
		return "conflict"
	case code == http.StatusUnprocessableEntity:
		return "unprocessable"
	case code == http.StatusTooManyRequests:
		return "overloaded"
	case code == statusCanceled:
		return "client_closed_request"
	case code >= 500:
		return "internal"
	default:
		return "invalid_request"
	}
}

// writeErr writes the unified JSON error envelope.
func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorBody{Error: errorDetail{
		Code:      errorCode(code),
		Message:   err.Error(),
		RequestID: w.Header().Get("X-Request-ID"),
	}})
}
