package service

import (
	"context"
	"errors"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/executor"
	"repro/internal/greedy"
	"repro/internal/hetero"
	"repro/internal/obs"
	"repro/internal/opq"
	"repro/internal/platform"
	"repro/internal/store"
)

// DefaultSolverName selects the cached OPQ path (ShardedSolver) — the
// service's recommended solver for every instance shape.
const DefaultSolverName = "sharded"

// ClusterSolverName is the name the default route goes by on a service
// configured with Peers — registered only there, and the same route as
// DefaultSolverName.
//
// Deprecated: kept as a wire name for clients and stored jobs that carry
// it; ROADMAP item 2(c) removes it with Config.Peers.
const ClusterSolverName = "cluster"

// Config parameterizes a Service.
type Config struct {
	// CacheSize bounds the queue cache; <= 0 selects DefaultCacheSize.
	CacheSize int
	// Workers is the number of solve slots: at most this many solves by
	// the default ("sharded") solver run at once across all requests, the
	// rest queue. <= 0 selects runtime.NumCPU().
	Workers int
	// MaxJobs bounds concurrently running async jobs; <= 0 selects Workers.
	MaxJobs int
	// Store, when non-nil, makes terminal jobs durable: every completed
	// job spills to it and the store is replayed at construction. Nil
	// keeps everything in memory.
	Store store.Store
	// ResultTTL evicts terminal jobs — memory and store — this long after
	// they finish; 0 keeps them for the service's lifetime.
	ResultTTL time.Duration
	// Logger receives persistence warnings; nil selects log.Default().
	//
	// Deprecated: prefer Slog. A Logger supplied here still works — it is
	// wrapped into a structured logger — so existing callers keep their
	// output destination; Slog wins when both are set.
	Logger *log.Logger
	// Slog receives the service's structured logs: per-request lines from
	// the HTTP middleware and persistence warnings. Nil falls back to
	// wrapping Logger, then to slog.Default().
	Slog *slog.Logger
	// MaxQueueWait enables admission control: when the p95 wait for a
	// solve slot exceeds it, shed-eligible routes (POST /v1/decompose
	// and POST /v1/jobs) reply 429 with a Retry-After header instead of
	// queueing deeper. Zero (the default) disables shedding.
	MaxQueueWait time.Duration
	// PlatformFactory builds the simulated platform run jobs execute
	// against; nil selects the crowdsim-backed default (models "jelly"
	// and "smic", optional worker pool).
	PlatformFactory PlatformFactory
	// BatchWindow > 0 enables the request batcher: concurrent
	// default-solver requests (synchronous decomposes and the planning
	// phase of solve/run jobs) for the same menu and threshold accumulate
	// for up to this long — DefaultBatchWindow (~2ms) in cmd/sladed —
	// and are then solved in one flush over one cache lookup, each
	// caller receiving exactly the plan its unbatched solve would.
	// Zero keeps batching off (the library default), preserving
	// per-request latency for embedders that never see bursts.
	BatchWindow time.Duration
	// BatchMaxRequests flushes a batch early once this many requests
	// joined it; <= 0 selects DefaultBatchMaxRequests. Only meaningful
	// with BatchWindow > 0.
	BatchMaxRequests int
	// SSEHeartbeat is the comment-frame interval on GET /v1/jobs/{id}/events
	// streams, keeping idle connections alive through proxies; <= 0 selects
	// DefaultSSEHeartbeat (15s).
	SSEHeartbeat time.Duration
	// Peers lists other sladed nodes' base URLs. They are accepted,
	// reported and never dialled: a node with peers serves every request
	// from its own cache by the route a single node uses, so a cluster is
	// N independent nodes behind a balancer. Non-empty still makes
	// "cluster" a registered solver name and the one unnamed requests are
	// reported under, and still adds the cluster blocks to /v1/stats and
	// /v1/healthz.
	//
	// Deprecated: kept for existing deployments and the ledger; ROADMAP
	// item 2(c) removes it with the fields below.
	Peers []string
	// ClusterSelf is this node's own advertised URL, reported as the
	// cluster blocks' "self" and dropped from Peers if listed there.
	//
	// Deprecated: goes with Peers.
	ClusterSelf string
	// ClusterTimeout, PeerRetries, ClusterMinSpanBlocks and
	// ClusterCooldown tuned the span fan-out.
	//
	// Deprecated: inert — nothing reads them; they go with Peers.
	ClusterTimeout       time.Duration
	PeerRetries          int
	ClusterMinSpanBlocks int
	ClusterCooldown      time.Duration
	// PlatformURL, when non-empty, connects the daemon to a remote crowd
	// marketplace: run jobs with platform kind "remote" execute against
	// it through the fault-tolerant platform client (retry budgets,
	// idempotent issue, rate limiting, circuit breaking), and /v1/stats
	// and /v1/healthz grow platform blocks. An invalid URL panics at
	// construction — a daemon booted against a typo should not come up.
	PlatformURL string
	// PlatformAuth is sent verbatim as the Authorization header on every
	// marketplace request.
	PlatformAuth string
	// PlatformTimeout bounds one bin-issue attempt; <= 0 selects
	// platform.DefaultTimeout.
	PlatformTimeout time.Duration
	// PlatformRetries is the per-job wire-retry budget; 0 selects
	// platform.DefaultRetryBudget, -1 disables wire retries.
	PlatformRetries int
	// PlatformRPS caps the marketplace issue rate; <= 0 is unlimited.
	PlatformRPS float64
	// PlatformTransport overrides the marketplace HTTP transport — the
	// fault-injection seam in tests; nil selects http.DefaultTransport.
	PlatformTransport http.RoundTripper
}

// errSummarize tags a failure to summarize a plan our own solver just
// produced — a server-side invariant break, not a client mistake. The
// HTTP layer maps it to 500 where ordinary solve errors map to 422.
var errSummarize = errors.New("service: summarizing solved plan")

// Service is the long-running decomposition service: a queue cache, a
// gated cached solver, a registry of named solvers, an async job manager,
// and an optional durable store. All methods are safe for concurrent use.
type Service struct {
	cache *OPQCache
	// menus interns the validated menus request bodies carry.
	menus   *menuTable
	sharded *ShardedSolver
	// cluster holds the configured peer list and serves the "cluster"
	// solver name by the local route; nil without Peers.
	cluster *cluster.Distributor
	// platform is the remote marketplace client; nil unless PlatformURL
	// is configured.
	platform *platform.Client
	jobs     *JobManager
	slog     *slog.Logger
	// batcher coalesces same-key default-solver traffic; nil when
	// batching is disabled.
	batcher *batcher
	// metrics holds the /metrics registry every subsystem registers its
	// instruments on, and the HTTP edge's own; always non-nil (see
	// metrics.go).
	metrics *serviceMetrics
	// sseHeartbeat is the comment-frame interval of SSE job feeds.
	sseHeartbeat time.Duration
	// closed stops the janitor and wakes every SSE subscriber at Close.
	closed    chan struct{}
	closeOnce sync.Once
	// janitorDone closes once the result-TTL janitor has stopped; nil
	// without a TTL.
	janitorDone chan struct{}
	// streams manages incremental-ingest planner sessions; always non-nil.
	streams *StreamManager
	// maxQueueWait is the admission-control threshold; 0 disables.
	maxQueueWait time.Duration

	mu      sync.RWMutex
	solvers map[string]core.Solver

	started time.Time
}

// New builds a Service with the standard solver line-up registered:
// "sharded" (default), "greedy", "opq", "opq-extended", and "baseline".
// With cfg.Store set, jobs persisted by earlier processes are replayed
// before New returns. Call Close when done to stop background work.
func New(cfg Config) *Service {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	maxJobs := cfg.MaxJobs
	if maxJobs <= 0 {
		maxJobs = workers
	}
	logger := cfg.Slog
	if logger == nil {
		if cfg.Logger != nil {
			logger = slogFromLegacy(cfg.Logger)
		} else {
			logger = slog.Default()
		}
	}
	s := &Service{
		solvers:      make(map[string]core.Solver),
		slog:         logger,
		metrics:      newServiceMetrics(),
		maxQueueWait: cfg.MaxQueueWait,
		sseHeartbeat: cfg.SSEHeartbeat,
		closed:       make(chan struct{}),
		started:      time.Now(),
	}
	if s.sseHeartbeat <= 0 {
		s.sseHeartbeat = DefaultSSEHeartbeat
	}
	s.cache = NewOPQCache(cfg.CacheSize)
	s.cache.register(s.metrics.reg)
	s.menus = newMenuTable(cfg.CacheSize)
	s.sharded = &ShardedSolver{Cache: s.cache, Workers: workers, Obs: newShardPoolObs(s.metrics.reg)}
	if cfg.BatchWindow > 0 {
		s.batcher = newBatcher(s, cfg.BatchWindow, cfg.BatchMaxRequests)
	}
	if cfg.PlatformURL != "" {
		pc, err := platform.NewClient(platform.Config{
			BaseURL:     cfg.PlatformURL,
			Auth:        cfg.PlatformAuth,
			Timeout:     cfg.PlatformTimeout,
			RetryBudget: cfg.PlatformRetries,
			RPS:         cfg.PlatformRPS,
			Transport:   cfg.PlatformTransport,
			Registry:    s.metrics.reg,
		})
		if err != nil {
			panic(fmt.Sprintf("service: remote platform: %v", err))
		}
		s.platform = pc
	}
	// The platform client exists before the job manager: the factory
	// resolves "remote" specs against it.
	s.streams = newStreamManager(s, cfg.ResultTTL)
	pf := cfg.PlatformFactory
	if pf == nil {
		pf = s.defaultPlatform
	}
	s.jobs = newJobManager(s, maxJobs, cfg.Store, cfg.ResultTTL, logger, pf)
	s.registerReads()
	if cfg.ResultTTL > 0 {
		s.janitorDone = make(chan struct{})
		go s.janitor(cfg.ResultTTL)
	}

	s.mustRegister(DefaultSolverName, s.sharded)
	s.mustRegister("greedy", greedy.Solver{})
	s.mustRegister("opq", opq.Solver{})
	s.mustRegister("opq-extended", hetero.Solver{})
	s.mustRegister("baseline", baseline.Solver{Seed: 1})
	if len(cfg.Peers) > 0 {
		s.cluster = cluster.New(cluster.Config{Self: cfg.ClusterSelf, Peers: cfg.Peers}, localRoute{s})
		s.mustRegister(ClusterSolverName, s.cluster)
	}
	return s
}

// defaultPlatform is the built-in PlatformFactory: "sim" (or empty)
// specs map onto the crowdsim substrate; "remote" specs get a per-job
// runner from the daemon's one marketplace client, so its breaker, rate
// cap, in-flight bound and slade_platform_* series cover every remote run.
func (s *Service) defaultPlatform(spec PlatformSpec) (executor.BinRunner, error) {
	if spec.Kind != "remote" {
		return defaultPlatformFactory(spec)
	}
	if s.platform == nil {
		return nil, fmt.Errorf("service: run job requests the remote platform but none is configured (start sladed with -platform-url)")
	}
	return s.platform.Runner(), nil
}

// DefaultSolver returns the routing key unnamed requests resolve to:
// "cluster" on a peer-configured service, DefaultSolverName otherwise.
// Both name the same route.
//
// Deprecated: always DefaultSolverName once ROADMAP item 2(c) lands.
func (s *Service) DefaultSolver() string {
	if s.cluster != nil {
		return ClusterSolverName
	}
	return DefaultSolverName
}

// janitor reaps the expired terminal jobs and stream sessions every ttl/4,
// clamped to 10 ms–1 min, until Close.
func (s *Service) janitor(ttl time.Duration) {
	defer close(s.janitorDone)
	t := time.NewTicker(min(max(ttl/4, 10*time.Millisecond), time.Minute))
	defer t.Stop()
	for {
		select {
		case <-s.closed:
			return
		case now := <-t.C:
			s.jobs.sweep(now)
			s.streams.sweep(now)
		}
	}
}

// Close waits for in-flight spills to reach the store, stops the
// result-TTL janitor and wakes every SSE subscriber so handlers return.
// Persisted state stays in the store; jobs still solving are not waited
// for — their spill happens in a process that may outlive the service's
// owner, which is harmless (the store is append-consistent). Idempotent
// and safe for concurrent use.
func (s *Service) Close() error {
	s.closeOnce.Do(func() {
		s.jobs.persistWG.Wait()
		close(s.closed)
		if s.janitorDone != nil {
			<-s.janitorDone
		}
	})
	return nil
}

// RegisterSolver adds (or replaces) a named solver. The name is the routing
// key for Decompose requests and job submissions. Safe for concurrent use,
// including concurrently with in-flight solves; the registered solver must
// itself be safe for concurrent Solve calls.
func (s *Service) RegisterSolver(name string, sv core.Solver) error {
	if name == "" || sv == nil {
		return fmt.Errorf("service: solver registration needs a name and a solver")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.solvers[name] = sv
	return nil
}

// mustRegister is RegisterSolver for the built-in line-up.
func (s *Service) mustRegister(name string, sv core.Solver) {
	if err := s.RegisterSolver(name, sv); err != nil {
		panic(err)
	}
}

// SolverNames lists the registered solver names, sorted. Safe for
// concurrent use; the returned slice is owned by the caller.
func (s *Service) SolverNames() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.solverNamesLocked()
}

// solver resolves a registered solver by name.
func (s *Service) solver(name string) (core.Solver, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	sv, ok := s.solvers[name]
	if !ok {
		return nil, fmt.Errorf("service: unknown solver %q (registered: %v)", name, s.solverNamesLocked())
	}
	return sv, nil
}

// solverNamesLocked lists names; the caller holds s.mu.
func (s *Service) solverNamesLocked() []string {
	names := make([]string, 0, len(s.solvers))
	for n := range s.solvers {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// DecomposeWith solves the instance with the named solver — by the local
// route when it resolves to the built-in sharded path, otherwise straight
// to the named solver — recording request, error, task and latency
// counters. Solvers that implement SolveContext (the sharded solver does)
// observe ctx; plain core.Solvers run to completion. With batching
// enabled, default-solver homogeneous requests are coalesced with
// concurrent same-key traffic (the reported latency then includes the
// accumulation window). Safe for concurrent use; the instance is only
// read.
func (s *Service) DecomposeWith(ctx context.Context, name string, in *core.Instance) (plan *core.Plan, err error) {
	start := time.Now()
	defer func() {
		s.metrics.solveLatency.ObserveSince(start)
		if err != nil {
			s.metrics.solveErrors.Inc()
		} else {
			s.metrics.solveTasks.Add(uint64(in.N()))
		}
	}()
	if in == nil {
		return nil, fmt.Errorf("service: nil instance")
	}
	sv, err := s.solver(name)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Only the built-in sharded solver: a re-registered "sharded" must
	// keep routing to the replacement.
	if ss, ok := sv.(*ShardedSolver); ok && ss == s.sharded {
		return localRoute{s}.SolveContext(ctx, in)
	}
	if cs, ok := sv.(ctxSolver); ok {
		return cs.SolveContext(ctx, in)
	}
	return sv.Solve(in)
}

// DecomposeSummarized is DecomposeWith returning the plan's summary as
// well — the shape the HTTP layer serves. Safe for concurrent use.
func (s *Service) DecomposeSummarized(ctx context.Context, name string, in *core.Instance) (*core.Plan, core.Summary, error) {
	plan, err := s.DecomposeWith(ctx, name, in)
	if err != nil {
		return nil, core.Summary{}, err
	}
	sum, err := plan.Summarize(in.Bins())
	if err != nil {
		return nil, core.Summary{}, fmt.Errorf("%w: %v", errSummarize, err)
	}
	return plan, sum, nil
}

// ctxSolver is the optional context-aware extension of core.Solver.
type ctxSolver interface {
	SolveContext(ctx context.Context, in *core.Instance) (*core.Plan, error)
}

// localRoute is the route a node serves its default solver by: through
// the batcher when the request is eligible (batching on, homogeneous,
// non-empty), otherwise straight to the cached solver. "sharded" and, on
// a peer-configured service, "cluster" both resolve to it.
type localRoute struct{ s *Service }

func (r localRoute) SolveContext(ctx context.Context, in *core.Instance) (*core.Plan, error) {
	if r.s.batcher != nil && in.N() > 0 && in.Homogeneous() {
		return r.s.batcher.join(ctx, in)
	}
	return r.s.sharded.SolveContext(ctx, in)
}

// Jobs returns the async job manager. Safe for concurrent use; the
// manager itself is concurrency-safe.
func (s *Service) Jobs() *JobManager { return s.jobs }

// Cache returns the shared queue cache. Safe for concurrent use; the
// cache itself is concurrency-safe.
func (s *Service) Cache() *OPQCache { return s.cache }

// NewPlanSummary returns sum unchanged: core.Summary is the served form.
//
// Deprecated: use the core.Summary directly. NewPlanSummary is kept only
// for the benchmark module, which moves off it with ROADMAP.md item 1(a).
func NewPlanSummary(sum core.Summary) core.Summary { return sum }

// Stats is a point-in-time service snapshot, served by GET /v1/stats.
type Stats struct {
	// UptimeSeconds is the service age.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Requests counts Decompose/DecomposeWith calls (sync and job-driven).
	Requests uint64 `json:"requests"`
	// Errors counts failed requests.
	Errors uint64 `json:"errors"`
	// Tasks counts atomic tasks decomposed by successful requests.
	Tasks uint64 `json:"tasks"`
	// Latency summarizes the decompose-path latency distribution
	// (mean and p50/p95/p99, replacing the former lone mean).
	Latency obs.LatencySummary `json:"latency"`
	// Endpoints reports per-endpoint HTTP request counts and latency
	// summaries, ordered by route then method. Empty until a handler
	// (NewHandler) has been built for the service.
	Endpoints []EndpointStats `json:"endpoints,omitempty"`
	// QueueWait summarizes time solves spent waiting for one of the
	// Workers solve slots — the signal admission control sheds on.
	QueueWait obs.LatencySummary `json:"queue_wait"`
	// Cache reports queue-cache effectiveness.
	Cache CacheStats `json:"cache"`
	// Batch reports the request batcher's coalescing effectiveness.
	Batch BatchStats `json:"batch"`
	// Jobs reports async job counters.
	Jobs JobStats `json:"jobs"`
	// Streams reports incremental-ingest stream-session counters.
	Streams StreamStats `json:"streams"`
	// Persistence reports the durable state layer's status.
	Persistence PersistenceStats `json:"persistence"`
	// Cluster lists the configured peers, each "unused", with zeroed
	// counters; omitted without Peers.
	//
	// Deprecated: goes with Config.Peers.
	Cluster *cluster.Stats `json:"cluster,omitempty"`
	// Platform reports the remote marketplace client's counters and
	// breaker state; omitted unless PlatformURL is configured.
	Platform *platform.Stats `json:"platform,omitempty"`
	// Solvers lists the registered solver names.
	Solvers []string `json:"solvers"`
	// Workers is the number of solve slots.
	Workers int `json:"workers"`
}

// PersistenceStats describes the durable store's configuration.
type PersistenceStats struct {
	// Enabled reports whether a durable store is configured.
	Enabled bool `json:"enabled"`
	// ResultTTLSeconds is the terminal-job eviction TTL (0 = keep).
	ResultTTLSeconds float64 `json:"result_ttl_seconds"`
}

// Stats returns the current counters. Safe for concurrent use.
func (s *Service) Stats() Stats {
	st := Stats{
		UptimeSeconds: time.Since(s.started).Seconds(),
		Requests:      s.metrics.solveLatency.Count(),
		Errors:        s.metrics.solveErrors.Value(),
		Tasks:         s.metrics.solveTasks.Value(),
		Latency:       s.metrics.solveLatency.Snapshot().Summary(),
		Endpoints:     s.metrics.endpointStats(),
		QueueWait:     s.sharded.Obs.QueueWait.Snapshot().Summary(),
		Cache:         s.cache.Stats(),
		Jobs:          s.jobs.Stats(),
		Streams:       s.streams.stats(),
		Persistence: PersistenceStats{
			Enabled:          s.jobs.store != nil,
			ResultTTLSeconds: s.jobs.jobs.ttl.Seconds(),
		},
		Solvers: s.SolverNames(),
		Workers: s.sharded.workers(),
	}
	if s.batcher != nil {
		st.Batch = s.batcher.stats()
	}
	if s.cluster != nil {
		cs := s.cluster.Stats()
		st.Cluster = &cs
	}
	if s.platform != nil {
		ps := s.platform.Stats()
		st.Platform = &ps
	}
	return st
}

// Metrics renders the service's full metric registry in Prometheus text
// exposition format — the payload GET /metrics serves. Safe for
// concurrent use.
func (s *Service) Metrics() []byte { return s.metrics.reg.Expose() }

// Health is the readiness snapshot served by GET /v1/healthz.
type Health struct {
	// Status is "ok", or "degraded" when the durable store is configured
	// but not currently writable (served with a 503).
	Status string `json:"status"`
	// UptimeSeconds is the service age.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Version/GoVersion/Revision come from the binary's build info; the
	// module version is "(devel)" for non-module builds and Revision is
	// empty without VCS stamping.
	Version   string `json:"version,omitempty"`
	GoVersion string `json:"go_version,omitempty"`
	Revision  string `json:"revision,omitempty"`
	// Persistence reports the durable store's availability.
	Persistence HealthPersistence `json:"persistence"`
	// Cluster lists the configured peers; omitted without Peers. Peers
	// are never contacted, so the block says nothing about their health
	// and cannot fail or degrade this node's.
	//
	// Deprecated: goes with Config.Peers.
	Cluster *HealthCluster `json:"cluster,omitempty"`
	// Platform reports the remote marketplace's reachability; omitted
	// unless PlatformURL is configured. A degraded platform NEVER fails the health check: the daemon keeps
	// serving (solve jobs are unaffected, remote runs finish with
	// explicit degraded partial reports), so taking the node out of
	// rotation would only lose capacity.
	Platform *HealthPlatform `json:"platform,omitempty"`
}

// HealthPlatform is the remote-marketplace block of a health report.
type HealthPlatform struct {
	URL string `json:"url"`
	// State is the platform breaker's state: "ok", "open", or "probing".
	State string `json:"state"`
	// Degraded reports whether the breaker is currently not "ok".
	Degraded bool `json:"degraded"`
	// Error is the most recent issue failure, while not "ok".
	Error string `json:"error,omitempty"`
}

// HealthCluster is the cluster block of a health report.
type HealthCluster struct {
	// Self is this node's advertised name.
	Self string `json:"self"`
	// Degraded is always false: no peer is probed.
	Degraded bool `json:"degraded"`
	// Peers lists the configured peers, sorted by URL.
	Peers []HealthPeer `json:"peers"`
}

// HealthPeer is one configured peer in a health report.
type HealthPeer struct {
	URL string `json:"url"`
	// State is always "unused": configured, never contacted.
	State string `json:"state"`
}

// HealthPersistence is the store block of a health report.
type HealthPersistence struct {
	// Enabled reports whether a durable store is configured.
	Enabled bool `json:"enabled"`
	// Writable reports whether the store accepted a write probe; always
	// true when the store does not support probing (or none is
	// configured — nothing to fail).
	Writable bool `json:"writable"`
	// Error is the probe failure, when not writable.
	Error string `json:"error,omitempty"`
}

// Health probes the service's readiness: uptime and build identity
// always, plus a store writability probe when the configured store
// supports one (the FS store probes its data directory). Safe for
// concurrent use.
func (s *Service) Health() Health {
	h := Health{
		Status:        "ok",
		UptimeSeconds: time.Since(s.started).Seconds(),
		Version:       s.metrics.version,
		GoVersion:     s.metrics.goVersion,
		Revision:      s.metrics.revision,
		Persistence:   HealthPersistence{Enabled: s.jobs.store != nil, Writable: true},
	}
	if c, ok := s.jobs.store.(store.Checker); ok {
		if err := c.CheckWritable(); err != nil {
			h.Status = "degraded"
			h.Persistence.Writable = false
			h.Persistence.Error = err.Error()
		}
	}
	if s.cluster != nil {
		cs := s.cluster.Stats()
		hc := &HealthCluster{Self: cs.Self, Peers: make([]HealthPeer, 0, len(cs.Peers))}
		for _, p := range cs.Peers {
			hc.Peers = append(hc.Peers, HealthPeer{URL: p.URL, State: p.State})
		}
		h.Cluster = hc
	}
	if s.platform != nil {
		ps := s.platform.Stats()
		h.Platform = &HealthPlatform{
			URL:      ps.URL,
			State:    ps.State,
			Degraded: ps.State != "ok",
			Error:    ps.LastError,
		}
	}
	return h
}
