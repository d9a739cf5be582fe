package service

import (
	"errors"
	"fmt"
	"log"
	"log/slog"
	"math"
	"net/http"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
)

// MetricsContentType is the Content-Type of GET /metrics responses — the
// Prometheus text exposition format version the renderer emits.
const MetricsContentType = "text/plain; version=0.0.4; charset=utf-8"

// cacheTopKeys is how many per-key cache series /metrics exports; the
// remaining keys (and everything folded from evicted keys) aggregate
// under key="other" so hot-key skew stays visible without unbounded
// series cardinality.
const cacheTopKeys = 10

// admissionRecomputeInterval bounds how often the admission check
// recomputes the queue-wait p95 from a histogram snapshot; between
// recomputes every request reads a cached value with two atomic loads,
// keeping the middleware allocation-free on the hot path.
const admissionRecomputeInterval = 250 * time.Millisecond

// admissionWindow is one interval of the windowed admission signal. The
// queue-wait histogram is cumulative since boot, so the admission p95 is
// computed over the previous full window merged with the current partial
// one — always one to two windows of recent observations — and anything
// older than two windows is discarded. Overload history therefore ages
// out and shedding stops shortly after the pool drains, instead of a
// since-boot p95 freezing above the limit and shedding forever. A var so
// tests can shrink it.
var admissionWindow = 10 * time.Second

// serviceMetrics is the service's metric bundle: every instrument the
// pipeline stages write into, plus the registry that renders them on
// GET /metrics. All instruments are created in New so the hot paths
// never take the registry lock.
type serviceMetrics struct {
	reg *obs.Registry

	// HTTP layer (written by the middleware in api.go).
	httpInflight      *obs.Gauge
	admissionRejected *obs.Counter

	routeMu sync.Mutex
	routes  map[string]*routeMetrics

	// Decompose path.
	solveLatency *obs.Histogram

	// Sharded solver: solves and their wait for a slot.
	shardObs ShardPoolObs

	// Batcher.
	batchFlushes   map[string]*obs.Counter // by flush reason
	batchFlushSize *obs.Histogram
	batchPending   *obs.Gauge

	// Executor.
	execBinsIssued  *obs.Counter
	execBinDuration *obs.Histogram
	execRetries     *obs.Counter
	execTopUpRounds *obs.Counter
	execJobSpend    *obs.Histogram

	// Job-event streaming (SSE).
	sseSubscribers     *obs.Gauge
	sseEventsPublished *obs.Counter

	// Incremental-ingest stream sessions.
	streamSessionsOpened  *obs.Counter
	streamSessionsActive  *obs.Gauge
	streamSessionsExpired *obs.Counter
	streamTasksAppended   *obs.Counter
	streamFlushes         *obs.Counter

	// Store.
	storeOpDuration map[string]*obs.Histogram
	storeOpErrors   map[string]*obs.Counter

	// Admission p95 cache (see queueWaitP95).
	admissionAtNS   atomic.Int64
	admissionP95    atomic.Uint64 // float64 bits
	admissionSeq    atomic.Uint64 // request-id sequence
	admissionBootID int64

	// Window rotation state of the admission signal, guarded by
	// admissionMu (only the recompute path, never the hot path, takes it).
	admissionMu        sync.Mutex
	admissionBaseline  obs.HistogramSnapshot // QueueWait at the last rotation
	admissionPrev      obs.HistogramSnapshot // previous full window's delta
	admissionRotatedNS int64

	// Build info resolved once (served by /v1/healthz).
	version   string
	goVersion string
	revision  string
}

// routeMetrics is the pre-created instrument set of one (method, route)
// pair: a latency histogram plus one counter per status class, so the
// middleware's hot path is pure atomic arithmetic — no label rendering,
// no map writes, no allocation.
type routeMetrics struct {
	method, route string
	// quiet routes (healthz, stats, metrics) log at Debug so scrape and
	// probe traffic does not drown request logs.
	quiet    bool
	classes  [5]*obs.Counter // index = status/100 - 1 (1xx..5xx)
	duration *obs.Histogram
}

// storeOps enumerates the operation labels of the store instrument
// families; pre-registering them keeps the wrapper allocation-free and
// makes the store series visible on /metrics even before traffic.
var storeOps = []string{"put_job", "get_job", "list_jobs", "delete_job"}

// batchFlushReasons enumerates the flush-trigger labels.
var batchFlushReasons = []string{flushReasonWindow, flushReasonCap, flushReasonDrain}

func newServiceMetrics() *serviceMetrics {
	reg := obs.NewRegistry()
	m := &serviceMetrics{
		reg:    reg,
		routes: make(map[string]*routeMetrics),

		httpInflight:      reg.Gauge("slade_http_inflight_requests", "HTTP requests currently being served."),
		admissionRejected: reg.Counter("slade_admission_rejected_total", "Requests shed with 429 by queue-wait admission control."),

		solveLatency: reg.Histogram("slade_solve_duration_seconds", "End-to-end decompose latency (sync and job-driven), including batching windows.", obs.HistogramOpts{}),

		shardObs: ShardPoolObs{
			SolveDuration: reg.Histogram("slade_shard_solve_duration_seconds", "Solve latency of the sharded solver, slot held.", obs.HistogramOpts{}),
			QueueWait:     reg.Histogram("slade_shard_queue_wait_seconds", "Time solves waited for one of the service-wide solve slots.", obs.HistogramOpts{}),
			ShardJobs:     reg.Counter("slade_shard_jobs_total", "Solves executed by the sharded solver."),
		},

		batchFlushes: map[string]*obs.Counter{
			flushReasonWindow: reg.Counter("slade_batch_flushes_total", "Batch flushes by trigger.", obs.L("reason", flushReasonWindow)),
			flushReasonCap:    reg.Counter("slade_batch_flushes_total", "Batch flushes by trigger.", obs.L("reason", flushReasonCap)),
			flushReasonDrain:  reg.Counter("slade_batch_flushes_total", "Batch flushes by trigger.", obs.L("reason", flushReasonDrain)),
		},
		batchFlushSize: reg.Histogram("slade_batch_flush_size", "Live members per flushed batch.",
			obs.HistogramOpts{Base: 1, Growth: 2, Buckets: 12}),
		batchPending: reg.Gauge("slade_batch_pending_requests", "Requests currently parked in pending batches."),

		execBinsIssued:  reg.Counter("slade_executor_bins_issued_total", "Bins handed to workers, including retries."),
		execBinDuration: reg.Histogram("slade_executor_bin_duration_seconds", "Reported per-bin completion time.", obs.HistogramOpts{}),
		execRetries:     reg.Counter("slade_executor_retries_total", "Bin re-issues after an overtime outcome."),
		execTopUpRounds: reg.Counter("slade_executor_topup_rounds_total", "Adaptive top-up rounds executed."),
		execJobSpend: reg.Histogram("slade_executor_job_spend", "Total spend per completed run job.",
			obs.HistogramOpts{Base: 0.01, Growth: 2, Buckets: 30}),

		sseSubscribers:     reg.Gauge("slade_sse_subscribers", "Open SSE job-event subscriptions."),
		sseEventsPublished: reg.Counter("slade_sse_events_total", "Job events published to SSE feeds."),

		streamSessionsOpened:  reg.Counter("slade_stream_sessions_opened_total", "Incremental-ingest stream sessions opened."),
		streamSessionsActive:  reg.Gauge("slade_stream_sessions_active", "Incremental-ingest stream sessions currently resident."),
		streamSessionsExpired: reg.Counter("slade_stream_sessions_expired_total", "Stream sessions reaped by the result TTL."),
		streamTasksAppended:   reg.Counter("slade_stream_tasks_total", "Tasks appended to stream sessions."),
		streamFlushes:         reg.Counter("slade_stream_flushes_total", "Stream session flushes."),

		storeOpDuration: make(map[string]*obs.Histogram, len(storeOps)),
		storeOpErrors:   make(map[string]*obs.Counter, len(storeOps)),

		admissionBootID:    time.Now().UnixNano(),
		admissionRotatedNS: time.Now().UnixNano(),
	}
	for _, op := range storeOps {
		m.storeOpDuration[op] = reg.Histogram("slade_store_op_duration_seconds", "Durable store operation latency.", obs.HistogramOpts{}, obs.L("op", op))
		m.storeOpErrors[op] = reg.Counter("slade_store_errors_total", "Durable store operation failures (not-found excluded).", obs.L("op", op))
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		m.version = bi.Main.Version
		m.goVersion = bi.GoVersion
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				m.revision = kv.Value
			}
		}
	}
	return m
}

// route returns (creating on first use) the instrument set for one
// (method, route) pair. Registration is idempotent, so rebuilding a
// handler over a live service keeps accumulating into the same series.
func (m *serviceMetrics) route(method, route string) *routeMetrics {
	key := method + " " + route
	m.routeMu.Lock()
	defer m.routeMu.Unlock()
	if rm, ok := m.routes[key]; ok {
		return rm
	}
	rm := &routeMetrics{
		method: method,
		route:  route,
		quiet:  route == "/v1/healthz" || route == "/v1/stats" || route == "/metrics",
		duration: m.reg.Histogram("slade_http_request_duration_seconds", "HTTP request latency by endpoint.",
			obs.HistogramOpts{}, obs.L("method", method), obs.L("route", route)),
	}
	for i := range rm.classes {
		rm.classes[i] = m.reg.Counter("slade_http_requests_total", "HTTP requests by endpoint and status class.",
			obs.L("method", method), obs.L("route", route), obs.L("code", fmt.Sprintf("%dxx", i+1)))
	}
	m.routes[key] = rm
	return rm
}

// observe records one finished request.
func (rm *routeMetrics) observe(status int, d time.Duration) {
	cls := status/100 - 1
	if cls < 0 {
		cls = 0
	}
	if cls >= len(rm.classes) {
		cls = len(rm.classes) - 1
	}
	rm.classes[cls].Inc()
	rm.duration.ObserveDuration(d)
}

// requests sums the route's status-class counters.
func (rm *routeMetrics) requests() uint64 {
	var n uint64
	for _, c := range rm.classes {
		n += c.Value()
	}
	return n
}

// sortedRoutes returns the route instrument sets ordered by route then
// method — the deterministic order /v1/stats reports endpoints in.
func (m *serviceMetrics) sortedRoutes() []*routeMetrics {
	m.routeMu.Lock()
	out := make([]*routeMetrics, 0, len(m.routes))
	for _, rm := range m.routes {
		out = append(out, rm)
	}
	m.routeMu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].route != out[j].route {
			return out[i].route < out[j].route
		}
		return out[i].method < out[j].method
	})
	return out
}

// nextRequestID mints a process-unique request id: a boot stamp so ids
// from different processes never collide in merged logs, plus a sequence.
func (m *serviceMetrics) nextRequestID() string {
	return fmt.Sprintf("%x-%x", m.admissionBootID&0xffffffff, m.admissionSeq.Add(1))
}

// registerCollectors exports the service's pre-existing counters (jobs,
// cache, uptime) as scrape-time series so /metrics is complete without
// double-counting state that Stats already tracks.
func (s *Service) registerCollectors() {
	m := s.metrics
	m.reg.RegisterCollector(func(e *obs.Emitter) {
		e.Gauge("slade_uptime_seconds", "Service age.", time.Since(s.started).Seconds())
		e.Counter("slade_solve_requests_total", "Decompose requests (sync and job-driven).", s.requests.Load())
		e.Counter("slade_solve_errors_total", "Failed decompose requests.", s.errors.Load())
		e.Counter("slade_solve_tasks_total", "Tasks decomposed by successful requests.", s.tasks.Load())

		js := s.jobs.Stats()
		e.Counter("slade_jobs_total", "Jobs by terminal outcome.", js.Done, obs.L("state", "done"))
		e.Counter("slade_jobs_total", "Jobs by terminal outcome.", js.Failed, obs.L("state", "failed"))
		e.Counter("slade_jobs_total", "Jobs by terminal outcome.", js.Canceled, obs.L("state", "canceled"))
		e.Gauge("slade_jobs_running", "Jobs currently running.", float64(js.Running))
		e.Gauge("slade_jobs_pending", "Jobs queued for a slot.", float64(js.Pending))
		e.Counter("slade_jobs_persisted_total", "Terminal jobs spilled to the durable store.", js.Persisted)
		e.Counter("slade_jobs_recovered_total", "Jobs replayed from the store at boot.", js.Recovered)
		e.Counter("slade_jobs_expired_total", "Terminal jobs reaped by the result TTL.", js.Expired)
		e.Counter("slade_jobs_interrupted_total", "Run jobs found mid-run at boot and failed as interrupted.", js.RunsInterrupted)

		cs := s.cache.Stats()
		e.Gauge("slade_cache_entries", "Resident queues.", float64(cs.Entries))
		e.Counter("slade_cache_evictions_total", "Queues dropped by the LRU policy.", cs.Evictions)
		e.Counter("slade_cache_coalesced_total", "Gets that piggybacked on an in-flight build.", cs.Coalesced)

		// The key label set follows the current top-K by traffic: a key
		// that drops out (or is evicted) stops exporting its own series and
		// folds into key="other", so per-key rate()/increase() can see
		// spurious resets across churn — the caveat is stated in each HELP
		// line and in OPERATIONS.md; sum without the key label for stable
		// totals.
		top, rest := s.cache.KeyMetrics(cacheTopKeys)
		emitKey := func(k KeyCacheStats, label string) {
			e.Counter("slade_cache_hits_total", "Cache hits by key (current top keys; others fold into key=\"other\", so per-key series churn — sum without key for stable rates).", k.Hits, obs.L("key", label))
			e.Counter("slade_cache_misses_total", "Cache misses by key (current top keys; others fold into key=\"other\", so per-key series churn — sum without key for stable rates).", k.Misses, obs.L("key", label))
			e.Counter("slade_cache_builds_total", "Queue builds by key (current top keys; others fold into key=\"other\", so per-key series churn — sum without key for stable rates).", k.Builds, obs.L("key", label))
			e.Histogram("slade_cache_build_duration_seconds", "Queue build latency by key (current top keys; others fold into key=\"other\", so per-key series churn — sum without key for stable rates).", k.Build, obs.L("key", label))
		}
		for _, k := range top {
			emitKey(k, k.Key)
		}
		emitKey(rest, "other")
	})
}

// instrument is the HTTP middleware every route passes through: request
// id, in-flight gauge, per-route status/latency instruments, structured
// request logging and — on shed-eligible routes — queue-wait admission
// control. It wraps exactly one handler and owns the response status via
// the recorder.
func (s *Service) instrument(rm *routeMetrics, shed bool, next http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		reqID := r.Header.Get("X-Request-ID")
		if reqID == "" {
			reqID = s.metrics.nextRequestID()
		}
		w.Header().Set("X-Request-ID", reqID)
		s.metrics.httpInflight.Inc()
		defer s.metrics.httpInflight.Dec()

		rec := &statusRecorder{ResponseWriter: w}
		if shed && s.maxQueueWait > 0 {
			if p95 := s.queueWaitP95(); p95 > s.maxQueueWait.Seconds() {
				s.metrics.admissionRejected.Inc()
				rec.Header().Set("Retry-After", retryAfterSeconds(p95))
				writeErr(rec, http.StatusTooManyRequests,
					fmt.Errorf("service: overloaded: solver queue wait p95 %.1fms over the %.1fms admission limit",
						p95*1e3, s.maxQueueWait.Seconds()*1e3))
				s.logRequest(rm, r, reqID, rec.status, time.Since(start))
				rm.observe(rec.status, time.Since(start))
				return
			}
		}
		next(rec, r)
		if rec.status == 0 {
			rec.status = http.StatusOK
		}
		rm.observe(rec.status, time.Since(start))
		s.logRequest(rm, r, reqID, rec.status, time.Since(start))
	})
}

// logRequest emits the structured per-request log line. Probe and scrape
// routes log at Debug; everything else at Info.
func (s *Service) logRequest(rm *routeMetrics, r *http.Request, reqID string, status int, d time.Duration) {
	level := slog.LevelInfo
	if rm.quiet {
		level = slog.LevelDebug
	}
	s.slog.Log(r.Context(), level, "http request",
		"request_id", reqID,
		"method", rm.method,
		"route", rm.route,
		"path", r.URL.Path,
		"status", status,
		"duration_ms", float64(d.Microseconds())/1e3,
	)
}

// statusRecorder captures the response status for the middleware.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.ResponseWriter.Write(p)
}

// Flush forwards to the underlying writer so streaming handlers (SSE,
// chunked plan encoding) can push frames through the middleware.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		if r.status == 0 {
			r.status = http.StatusOK
		}
		f.Flush()
	}
}

// queueWaitP95 returns the solve slots' queue-wait p95 in seconds over
// the last one-to-two admissionWindow intervals, recomputed from a
// histogram snapshot at most every admissionRecomputeInterval; between
// recomputes it is two atomic loads.
func (s *Service) queueWaitP95() float64 {
	m := s.metrics
	now := time.Now().UnixNano()
	last := m.admissionAtNS.Load()
	if now-last < int64(admissionRecomputeInterval) {
		return math.Float64frombits(m.admissionP95.Load())
	}
	// One goroutine wins the recompute; racers serve the stale value for
	// at most one interval.
	if !m.admissionAtNS.CompareAndSwap(last, now) {
		return math.Float64frombits(m.admissionP95.Load())
	}
	cur := m.shardObs.QueueWait.Snapshot()
	m.admissionMu.Lock()
	switch elapsed := now - m.admissionRotatedNS; {
	case elapsed >= 2*int64(admissionWindow):
		// More than a full idle window since the last rotation (no
		// recomputes run without traffic): everything before cur is stale,
		// so restart the window rather than shed on ancient waits.
		m.admissionPrev = obs.HistogramSnapshot{}
		m.admissionBaseline = cur
		m.admissionRotatedNS = now
	case elapsed >= int64(admissionWindow):
		m.admissionPrev = cur.Sub(m.admissionBaseline)
		m.admissionBaseline = cur
		m.admissionRotatedNS = now
	}
	windowed := m.admissionPrev.Add(cur.Sub(m.admissionBaseline))
	m.admissionMu.Unlock()
	p95 := windowed.Quantile(0.95)
	m.admissionP95.Store(math.Float64bits(p95))
	return p95
}

// retryAfterSeconds renders a Retry-After header value from the observed
// p95: long enough for the queue to drain a little, clamped to [1, 60]s.
func retryAfterSeconds(p95 float64) string {
	secs := int(math.Ceil(p95))
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return fmt.Sprintf("%d", secs)
}

// storeObserver adapts the store wrapper's callbacks onto the metric
// bundle. Not-found lookups are normal control flow, not store failures.
func (s *Service) storeObserver(op string, d time.Duration, err error) {
	m := s.metrics
	h, ok := m.storeOpDuration[op]
	if !ok {
		return
	}
	h.ObserveDuration(d)
	if err != nil && !errors.Is(err, store.ErrNotFound) {
		m.storeOpErrors[op].Inc()
	}
}

// execObserver satisfies executor.Observer over the metric bundle.
type execObserver struct{ m *serviceMetrics }

func (o execObserver) BinIssued(d time.Duration) {
	o.m.execBinsIssued.Inc()
	o.m.execBinDuration.ObserveDuration(d)
}
func (o execObserver) BinRetried() { o.m.execRetries.Inc() }
func (o execObserver) TopUpRound() { o.m.execTopUpRounds.Inc() }

// EndpointStats is one endpoint's row in /v1/stats: request counts by
// status class plus the latency distribution.
type EndpointStats struct {
	Method string `json:"method"`
	Route  string `json:"route"`
	// Requests is the total across all status classes; Status breaks it
	// down ("2xx", "4xx", ...), omitting zero classes.
	Requests uint64             `json:"requests"`
	Status   map[string]uint64  `json:"status,omitempty"`
	Latency  obs.LatencySummary `json:"latency"`
}

// endpointStats snapshots every route's instruments.
func (m *serviceMetrics) endpointStats() []EndpointStats {
	routes := m.sortedRoutes()
	out := make([]EndpointStats, 0, len(routes))
	for _, rm := range routes {
		es := EndpointStats{
			Method:  rm.method,
			Route:   rm.route,
			Latency: rm.duration.Snapshot().Summary(),
		}
		for i, c := range rm.classes {
			if v := c.Value(); v > 0 {
				if es.Status == nil {
					es.Status = make(map[string]uint64, 2)
				}
				es.Status[fmt.Sprintf("%dxx", i+1)] = v
				es.Requests += v
			}
		}
		out = append(out, es)
	}
	return out
}

// slogFromLegacy adapts a *log.Logger into a slog.Logger — the
// compatibility shim behind the deprecated Config.Logger field. Each
// slog record renders to one line on the legacy logger.
func slogFromLegacy(l *log.Logger) *slog.Logger {
	return slog.New(slog.NewTextHandler(legacyWriter{l}, nil))
}

// legacyWriter feeds text-handler output through the legacy logger so
// its prefix/flags/destination settings keep applying.
type legacyWriter struct{ l *log.Logger }

func (w legacyWriter) Write(p []byte) (int, error) {
	w.l.Print(strings.TrimRight(string(p), "\n"))
	return len(p), nil
}
