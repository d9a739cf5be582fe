package service

import (
	"fmt"
	"log"
	"log/slog"
	"math"
	"net/http"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// MetricsContentType is the Content-Type of GET /metrics responses — the
// Prometheus text exposition format version the renderer emits.
const MetricsContentType = "text/plain; version=0.0.4; charset=utf-8"

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

// serviceMetrics holds the registry that renders GET /metrics and the
// instruments of the HTTP edge, the decompose path and the batcher. Every
// other series is registered by the type that writes it (the cache, the
// solve slots, the job and stream managers, the platform client) on this
// registry. All instruments are created in New so the hot paths never
// take the registry lock.
type serviceMetrics struct {
	reg *obs.Registry

	// HTTP layer (written by the middleware in api.go).
	httpInflight      *obs.Gauge
	admissionRejected *obs.Counter

	routeMu sync.Mutex
	routes  map[string]*routeMetrics

	// Decompose path: the latency histogram's count is the request count.
	solveLatency *obs.Histogram
	solveErrors  *obs.Counter
	solveTasks   *obs.Counter

	// Batcher.
	batchFlushes   map[string]*obs.Counter // by flush reason
	batchFlushSize *obs.Histogram
	batchPending   *obs.Gauge

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

func newServiceMetrics() *serviceMetrics {
	reg := obs.NewRegistry()
	m := &serviceMetrics{
		reg:    reg,
		routes: make(map[string]*routeMetrics),

		httpInflight:      reg.Gauge("slade_http_inflight_requests", "HTTP requests currently being served."),
		admissionRejected: reg.Counter("slade_admission_rejected_total", "Requests shed with 429 by queue-wait admission control."),

		solveLatency: reg.Histogram("slade_solve_duration_seconds", "End-to-end decompose latency (sync and job-driven), including batching windows.", obs.HistogramOpts{}),
		solveErrors:  reg.Counter("slade_solve_errors_total", "Failed decompose requests."),
		solveTasks:   reg.Counter("slade_solve_tasks_total", "Tasks decomposed by successful requests."),

		batchFlushes: map[string]*obs.Counter{
			flushReasonWindow: reg.Counter("slade_batch_flushes_total", "Batch flushes by trigger.", obs.L("reason", flushReasonWindow)),
			flushReasonCap:    reg.Counter("slade_batch_flushes_total", "Batch flushes by trigger.", obs.L("reason", flushReasonCap)),
			flushReasonDrain:  reg.Counter("slade_batch_flushes_total", "Batch flushes by trigger.", obs.L("reason", flushReasonDrain)),
		},
		batchFlushSize: reg.Histogram("slade_batch_flush_size", "Live members per flushed batch.",
			obs.HistogramOpts{Base: 1, Growth: 2, Buckets: 12}),
		batchPending: reg.Gauge("slade_batch_pending_requests", "Requests currently parked in pending batches."),

		admissionBootID:    time.Now().UnixNano(),
		admissionRotatedNS: time.Now().UnixNano(),
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
	var buf [32]byte
	b := strconv.AppendUint(buf[:0], uint64(m.admissionBootID&0xffffffff), 16)
	b = append(b, '-')
	return string(strconv.AppendUint(b, m.admissionSeq.Add(1), 16))
}

// echoableRequestID reports whether an inbound X-Request-ID is echoed:
// 1 to 128 bytes of visible ASCII (0x21–0x7E). Any other value is
// replaced by a minted id, so a caller cannot put up to the server's
// header limit, or control bytes, into every response header, error
// envelope and log line its request causes.
func echoableRequestID(id string) bool {
	if id == "" || len(id) > 128 {
		return false
	}
	for i := 0; i < len(id); i++ {
		if id[i] < 0x21 || id[i] > 0x7e {
			return false
		}
	}
	return true
}

// registerReads exports uptime and the request count as series read at
// scrape time, so /metrics keeps no second copy of them.
func (s *Service) registerReads() {
	reg := s.metrics.reg
	reg.Func("slade_uptime_seconds", "Service age.", obs.TypeGauge, func() float64 { return time.Since(s.started).Seconds() })
	reg.Func("slade_solve_requests_total", "Decompose requests (sync and job-driven).", obs.TypeCounter, func() float64 { return float64(s.metrics.solveLatency.Count()) })
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
		if !echoableRequestID(reqID) {
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
	s.slog.LogAttrs(r.Context(), level, "http request",
		slog.String("request_id", reqID),
		slog.String("method", rm.method),
		slog.String("route", rm.route),
		slog.String("path", r.URL.Path),
		slog.Int("status", status),
		slog.Float64("duration_ms", float64(d.Microseconds())/1e3),
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
	cur := s.sharded.Obs.QueueWait.Snapshot()
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
