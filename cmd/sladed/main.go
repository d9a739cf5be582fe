// Command sladed is the SLADE decomposition daemon: a long-running HTTP
// service that decomposes large-scale crowdsourcing tasks on demand,
// amortizing Optimal Priority Queue construction across requests,
// bounding concurrent solves to the CPU cores, executing plans end to end
// against a simulated crowd platform ("kind":"run" jobs, reported with
// achieved reliability and itemized spend), and (with -data-dir)
// persisting completed jobs — execution reports included — so a restart
// loses none of them.
//
// Usage:
//
//	sladed                        # listen on :8080, in-memory only
//	sladed -addr :9090            # custom listen address
//	sladed -cache 256             # queue-cache capacity
//	sladed -workers 8             # concurrent solve slots (and default job concurrency)
//	sladed -data-dir /var/slade   # durable job results
//	sladed -result-ttl 24h        # evict terminal jobs after 24 hours
//	sladed -batch-window 0        # disable same-menu request batching
//	sladed -batch-max 64          # flush a batch after 64 requests
//	sladed -max-queue-wait 250ms  # shed solve traffic when queue-wait p95 exceeds 250ms
//	sladed -sse-heartbeat 15s     # SSE keep-alive comment interval for /v1/jobs/{id}/events
//	sladed -log-json              # structured request logs as JSON lines
//	sladed -peers http://b:8080,http://c:8080 -advertise http://a:8080
//	                              # deprecated: b and c are listed in stats, never dialled
//	sladed -platform-url http://market:9000 -platform-auth "Bearer t"
//	                              # remote marketplace for "platform_kind":"remote" runs
//	sladed -platform-timeout 10s -platform-retries 64 -platform-rps 50
//	                              # per-attempt deadline, per-job retry budget, rate cap
//
// With -platform-url set, run jobs may name "platform_kind":"remote" to
// issue bins over HTTP against a crowd marketplace instead of in-process
// crowdsim. Issues are idempotent (keyed by job, bin and attempt epoch),
// retried with jittered backoff under a per-job budget, rate-limited, and
// circuit-broken; a marketplace outage degrades the run to a partial
// report ("degraded": true) instead of failing it, /v1/stats grows a
// "platform" block, and /v1/healthz reports marketplace reachability
// without ever failing the probe.
//
// A cluster is N independent sladed nodes behind a load balancer: every
// node answers every request from its own OPQ cache, and no node talks
// to another. -peers, -advertise, -cluster-timeout and -peer-retries are
// deprecated and still parse so existing unit files boot: a peer list is
// reported ("cluster" blocks in /v1/stats and /v1/healthz, each peer
// "unused"; "solver":"cluster" stays an accepted name for the default
// route) and never dialled; the other two are ignored.
//
// By default the daemon coalesces concurrent same-menu decompose traffic
// (-batch-window 2ms): requests for the same menu and threshold accumulate
// briefly and are solved in one flush over one cached queue, each caller
// getting exactly the plan its unbatched solve would.
//
// Every pipeline stage is instrumented: GET /metrics exposes Prometheus
// text-format counters and histograms for the HTTP layer, OPQ cache,
// batcher, solve slots, executor, and store, and every request is logged
// with a propagated X-Request-ID. With -max-queue-wait set, the daemon
// sheds solve-submitting traffic (429 + Retry-After) once the p95 wait
// for a solve slot crosses the limit.
//
// Endpoints (JSON): POST /v1/decompose, POST /v1/decompose/batch,
// POST /v1/jobs, GET /v1/jobs/{id}, GET /v1/jobs/{id}/events (SSE),
// DELETE /v1/jobs/{id}, POST /v1/streams, POST /v1/streams/{id}/tasks,
// POST /v1/streams/{id}/flush, GET /v1/streams/{id},
// DELETE /v1/streams/{id}, GET /v1/healthz, GET /v1/stats, GET /metrics
// (Prometheus text). See docs/OPERATIONS.md for the full flag reference,
// curl examples and the restart-recovery runbook; docs/API.md is the wire
// reference.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	slade "repro"
)

func main() {
	// flag.CommandLine is ExitOnError: a bad flag has already printed the
	// usage and exited 2, so the error is always nil here.
	addr, cfg, _ := parseFlags(flag.CommandLine, os.Args[1:])

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, addr, cfg, log.Default()); err != nil {
		if cfg.service.Slog != nil { // -log-json: the last line is JSON too
			cfg.service.Slog.Error("sladed: " + err.Error())
		} else {
			fmt.Fprintln(os.Stderr, "sladed:", err)
		}
		os.Exit(1)
	}
}

// parseFlags declares every sladed flag on fs, parses args and returns the
// listen address and the daemon configuration. docs/OPERATIONS.md
// documents exactly the flags declared here (TestDocsMatchBinary).
func parseFlags(fs *flag.FlagSet, args []string) (string, daemonConfig, error) {
	addr := fs.String("addr", ":8080", "listen address")
	cache := fs.Int("cache", 0, "queue-cache capacity (0 = default)")
	workers := fs.Int("workers", 0, "concurrent solve slots, shared by all requests; also the default -max-jobs (0 = all CPUs)")
	maxJobs := fs.Int("max-jobs", 0, "concurrently running async jobs (0 = workers)")
	dataDir := fs.String("data-dir", "", "durable state directory; empty keeps all state in memory")
	resultTTL := fs.Duration("result-ttl", 0, "evict terminal jobs this long after they finish (0 = keep them for the daemon's lifetime)")
	batchWindow := fs.Duration("batch-window", slade.DefaultBatchWindow, "coalesce concurrent same-menu requests for up to this long into one flush (0 = disable batching)")
	batchMax := fs.Int("batch-max", 0, "flush a batch once this many requests joined (0 = default 256)")
	maxQueueWait := fs.Duration("max-queue-wait", 0, "shed solve traffic (429 + Retry-After) when the p95 wait for a solve slot exceeds this (0 = never shed)")
	sseHeartbeat := fs.Duration("sse-heartbeat", 0, "keep-alive comment interval on SSE event streams (0 = 15s default)")
	logJSON := fs.Bool("log-json", false, "emit structured logs as JSON lines instead of text")
	peers := fs.String("peers", "", "deprecated: comma-separated peer base URLs, listed in /v1/stats and /v1/healthz and never dialled — run N independent nodes behind a balancer")
	advertise := fs.String("advertise", "", "deprecated: this node's own base URL, reported as \"self\" beside -peers")
	fs.Duration("cluster-timeout", 0, "deprecated: ignored (no peer is dialled)")
	fs.Int("peer-retries", 1, "deprecated: ignored (no peer is dialled)")
	platformURL := fs.String("platform-url", "", "remote crowd-marketplace base URL; non-empty lets run jobs execute with \"platform_kind\":\"remote\"")
	platformAuth := fs.String("platform-auth", "", "Authorization header sent verbatim on every marketplace request")
	platformTimeout := fs.Duration("platform-timeout", 0, "per-attempt deadline for one remote bin issue (0 = 10s default)")
	platformRetries := fs.Int("platform-retries", 0, "per-job wire-retry budget for marketplace calls (0 = 64 default, -1 = no retries)")
	platformRPS := fs.Float64("platform-rps", 0, "marketplace issue-rate cap in requests/second (0 = unlimited)")
	if err := fs.Parse(args); err != nil {
		return "", daemonConfig{}, err
	}
	cfg := daemonConfig{
		service: slade.ServiceConfig{
			CacheSize:        *cache,
			Workers:          *workers,
			MaxJobs:          *maxJobs,
			ResultTTL:        *resultTTL,
			BatchWindow:      *batchWindow,
			BatchMaxRequests: *batchMax,
			MaxQueueWait:     *maxQueueWait,
			SSEHeartbeat:     *sseHeartbeat,
			Peers:            splitPeers(*peers),
			ClusterSelf:      *advertise,
			PlatformURL:      *platformURL,
			PlatformAuth:     *platformAuth,
			PlatformTimeout:  *platformTimeout,
			PlatformRetries:  *platformRetries,
			PlatformRPS:      *platformRPS,
		},
		dataDir: *dataDir,
	}
	if *logJSON {
		cfg.service.Slog = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	return *addr, cfg, nil
}

// splitPeers parses the -peers flag: comma-separated URLs, blanks dropped.
func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// daemonConfig bundles the service configuration with the data directory.
type daemonConfig struct {
	service slade.ServiceConfig
	// dataDir roots the filesystem store; empty disables persistence.
	dataDir string
}

// run serves the decomposition API on addr until ctx is canceled, then
// drains in-flight requests.
func run(ctx context.Context, addr string, cfg daemonConfig, logger *log.Logger) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return serve(ctx, ln, cfg, logger)
}

// serve runs the daemon on an existing listener; the testable core of
// main. With a data dir configured it opens the filesystem store and
// replays persisted jobs. Every line the daemon logs — its own, the
// store's warnings and the requests — goes through one slog handler:
// cfg.service.Slog (JSON under -log-json), or else a text handler over
// logger's writer.
func serve(ctx context.Context, ln net.Listener, cfg daemonConfig, logger *log.Logger) error {
	svcCfg := cfg.service
	if svcCfg.Slog == nil {
		// Straight to the logger's writer: through the logger itself its
		// date prefix would precede slog's own time= on every line.
		svcCfg.Slog = slog.New(slog.NewTextHandler(logger.Writer(), nil))
	}
	logf := func(format string, args ...any) { svcCfg.Slog.Info(fmt.Sprintf(format, args...)) }
	// Catch a typo'd -platform-url here with a flag-shaped error; the
	// service constructor treats an invalid URL as a programming error.
	if u := svcCfg.PlatformURL; u != "" {
		if _, err := url.Parse(u); err != nil ||
			!strings.HasPrefix(u, "http://") && !strings.HasPrefix(u, "https://") {
			return fmt.Errorf("-platform-url %q is not an http(s) URL", u)
		}
	}
	if cfg.dataDir != "" {
		st, err := slade.OpenFSStore(cfg.dataDir, slog.NewLogLogger(svcCfg.Slog.Handler(), slog.LevelWarn))
		if err != nil {
			return err
		}
		svcCfg.Store = st
	}
	svc := slade.NewService(svcCfg)
	defer svc.Close()

	if rec := svc.Stats().Jobs.Recovered; rec > 0 {
		logf("sladed: warm boot: %d persisted jobs recovered", rec)
	}

	srv := &http.Server{
		Handler:           slade.NewServiceHandler(svc),
		ReadHeaderTimeout: 10 * time.Second,
	}
	logf("sladed listening on %s (workers=%d, durable=%v, batch-window=%v)",
		ln.Addr(), svc.Stats().Workers, cfg.dataDir != "", cfg.service.BatchWindow)
	if n := len(cfg.service.Peers); n > 0 {
		logf("sladed: -peers is deprecated: %d peers accepted for compatibility and not dialled; this node serves every request itself", n)
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	logf("sladed shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return err
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
