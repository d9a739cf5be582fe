package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
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
//	POST   /v1/jobs                 submit an async job (solve, stream or run)
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

// instance validates and builds the core.Instance.
func (ir *instanceRequest) instance() (*core.Instance, error) {
	bins, err := core.NewBinSet(ir.Bins)
	if err != nil {
		return nil, err
	}
	return ir.build(bins, MaxTasks)
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
	Summary   PlanSummary   `json:"summary"`
	ElapsedMS float64       `json:"elapsed_ms"`
	Plan      []core.BinUse `json:"plan,omitempty"`
}

func handleDecompose(s *Service, w http.ResponseWriter, r *http.Request) {
	var req decomposeRequest
	if !decodeBody(w, r, &req) {
		return
	}
	in, err := req.instance()
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
	N       int         `json:"n"`
	Summary PlanSummary `json:"summary"`
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
	if !decodeBody(w, r, &req) {
		return
	}
	if len(req.Instances) == 0 {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("batch needs at least one instance"))
		return
	}
	bins, err := core.NewBinSet(req.Bins)
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
	type memberOut struct {
		sum PlanSummary
		err error
	}
	outs := make([]memberOut, len(ins))
	var wg sync.WaitGroup
	for i, in := range ins {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, sum, err := s.DecomposeSummarized(r.Context(), name, in)
			outs[i] = memberOut{sum: sum, err: err}
		}()
	}
	wg.Wait()
	resp := batchDecomposeResponse{
		Solver:    name,
		Instances: len(ins),
		Results:   make([]batchResult, len(ins)),
	}
	for i, o := range outs {
		if o.err != nil {
			writeErr(w, statusFor(o.err), fmt.Errorf("instance %d: %w", i, o.err))
			return
		}
		resp.Results[i] = batchResult{N: ins[i].N(), Summary: o.sum}
	}
	resp.ElapsedMS = float64(time.Since(start).Microseconds()) / 1e3
	writeJSON(w, http.StatusOK, resp)
}

// jobRequest is the POST /v1/jobs body. Kind selects the payload: "solve"
// (default) uses the instance fields, "stream" the stream field, "run"
// the instance fields plus the optional run field.
type jobRequest struct {
	Kind string `json:"kind,omitempty"`
	decomposeRequest
	Stream *streamRequest `json:"stream,omitempty"`
	Run    *runRequest    `json:"run,omitempty"`
}

// streamRequest is the wire form of a streaming-arrival job.
type streamRequest struct {
	Bins      []core.TaskBin `json:"bins"`
	Threshold float64        `json:"threshold"`
	Batches   [][]int        `json:"batches"`
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
	// in-process crowdsim) or "remote" (the HTTP bin platform). With
	// "remote", PlatformURL overrides the daemon-wide platform for this
	// job (bringing its own timeout/retry/rate knobs); empty uses the
	// client configured at startup via -platform-url.
	PlatformKind      string  `json:"platform_kind,omitempty"`
	PlatformURL       string  `json:"platform_url,omitempty"`
	PlatformAuth      string  `json:"platform_auth,omitempty"`
	PlatformTimeoutMS int     `json:"platform_timeout_ms,omitempty"`
	PlatformRetries   int     `json:"platform_retries,omitempty"`
	PlatformRPS       float64 `json:"platform_rps,omitempty"`
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
			URL:             rr.PlatformURL,
			Auth:            rr.PlatformAuth,
			TimeoutMS:       rr.PlatformTimeoutMS,
			Retries:         rr.PlatformRetries,
			RPS:             rr.PlatformRPS,
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
	if !decodeBody(w, r, &req) {
		return
	}
	kind := req.Kind
	// A payload the kind does not consume is a client mistake (likely a
	// kind typo); executing something other than what the body describes
	// would be worse than rejecting it.
	if req.Stream != nil && kind != KindStream {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("stream payload needs kind %q", KindStream))
		return
	}
	if req.Run != nil && kind != KindRun {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("run payload needs kind %q", KindRun))
		return
	}
	var jr JobRequest
	switch kind {
	case KindStream:
		if req.Stream == nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("stream job missing stream payload"))
			return
		}
		bins, err := core.NewBinSet(req.Stream.Bins)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		jr.Stream = &StreamJob{Bins: bins, Threshold: req.Stream.Threshold, Batches: req.Stream.Batches}
		// Pass the solver field through so Submit can reject it: stream
		// jobs always plan with the stream planner, and silently ignoring
		// a requested solver would misattribute the results.
		jr.Solver = req.Solver
	case KindRun:
		in, err := req.instance()
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		rr := req.Run
		if rr == nil {
			rr = &runRequest{} // a bare run job: all defaults
		}
		jr.Run = rr.runJob(in)
		jr.Solver = req.Solver
	case "", KindSolve:
		in, err := req.instance()
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		jr.Instance = in
		jr.Solver = req.Solver
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
	id := r.PathValue("id")
	st, err := s.Jobs().Status(id)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	resp := jobStatusResponse{JobStatus: st}
	if st.State == JobDone && r.URL.Query().Get("include_plan") == "true" {
		plan, err := s.Jobs().Result(id)
		if err != nil {
			writeErr(w, http.StatusInternalServerError, err)
			return
		}
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
	id := r.PathValue("id")
	if err := s.Jobs().Cancel(id); err != nil {
		code := http.StatusConflict // terminal job: cancel conflicts with its state
		if errors.Is(err, ErrUnknownJob) {
			code = http.StatusNotFound
		}
		writeErr(w, code, err)
		return
	}
	st, err := s.Jobs().Status(id)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// decodeBody decodes a JSON request body into dst, writing the error
// response itself on failure.
func decodeBody(w http.ResponseWriter, r *http.Request, dst any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return false
	}
	return true
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
