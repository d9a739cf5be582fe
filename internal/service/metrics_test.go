package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/binset"
	"repro/internal/core"
	"repro/internal/store"
)

// newMetricsServer builds a full-featured test service: a store (so the
// store series see traffic) and batching left off so counts stay
// deterministic.
func newMetricsServer(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	if cfg.Slog == nil {
		cfg.Slog = slog.New(slog.DiscardHandler)
	}
	svc := New(cfg)
	t.Cleanup(func() { svc.Close() })
	ts := httptest.NewServer(NewHandler(svc))
	t.Cleanup(ts.Close)
	return svc, ts
}

// TestMetricsEndpoint drives traffic through every HTTP route, scrapes
// /metrics, and checks the content type, a series per route and every
// per-stage metric family the pipeline exports. The exposition is valid
// by construction of obs.Registry.WriteTo; a registration clashing with
// another panics in New, which fails here.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newMetricsServer(t, Config{CacheSize: 8, Workers: 2, Store: store.NewMem()})

	// One request per route (the run job also exercises the executor).
	body := fmt.Sprintf(`{"bins":%s,"n":50,"threshold":0.9}`, table1JSON)
	if resp, raw := postJSON(t, ts.URL+"/v1/decompose", body); resp.StatusCode != http.StatusOK {
		t.Fatalf("decompose: %d (%s)", resp.StatusCode, raw)
	}
	runBody := fmt.Sprintf(`{"kind":"run","bins":%s,"n":20,"threshold":0.9,"run":{"seed":7,"positive_rate":0.5}}`, table1JSON)
	resp, raw := postJSON(t, ts.URL+"/v1/jobs", runBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit run job: %d (%s)", resp.StatusCode, raw)
	}
	var st JobStatus
	if err := decodeJobID(raw, &st); err != nil {
		t.Fatal(err)
	}
	waitTerminalHTTP(t, ts.URL, st.ID)
	getJSON(t, ts.URL+"/v1/jobs/"+st.ID, nil)
	if resp := doDelete(t, ts.URL+"/v1/jobs/"+st.ID); resp.StatusCode != http.StatusConflict {
		t.Fatalf("delete terminal job: %d", resp.StatusCode)
	}
	getJSON(t, ts.URL+"/v1/healthz", nil)
	getJSON(t, ts.URL+"/v1/stats", nil)

	payload, contentType := scrapeMetrics(t, ts.URL)
	if !strings.HasPrefix(contentType, "text/plain") || !strings.Contains(contentType, "version=0.0.4") {
		t.Fatalf("metrics content type %q", contentType)
	}

	// Every route is covered, including /metrics itself on the rescrape.
	for _, route := range []string{
		"/v1/decompose", "/v1/jobs", "/v1/jobs/{id}", "/v1/healthz", "/v1/stats", "/metrics",
	} {
		if !strings.Contains(payload, fmt.Sprintf("route=%q", route)) {
			t.Errorf("no per-route series for %s", route)
		}
	}
	// Every pipeline stage exports its families.
	families := []string{
		"slade_http_requests_total", "slade_http_request_duration_seconds", "slade_http_inflight_requests",
		"slade_admission_rejected_total",
		"slade_solve_duration_seconds",
		"slade_shard_solve_duration_seconds", "slade_shard_queue_wait_seconds", "slade_shard_jobs_total",
		"slade_batch_flushes_total", "slade_batch_flush_size", "slade_batch_pending_requests",
		"slade_cache_hits_total", "slade_cache_misses_total", "slade_cache_builds_total",
		"slade_cache_build_duration_seconds", "slade_cache_entries", "slade_cache_evictions_total",
		"slade_executor_bins_issued_total", "slade_executor_bin_duration_seconds",
		"slade_executor_retries_total", "slade_executor_topup_rounds_total", "slade_executor_job_spend",
		"slade_store_op_duration_seconds", "slade_store_errors_total",
		"slade_jobs_total", "slade_jobs_persisted_total", "slade_uptime_seconds",
		"slade_solve_requests_total",
	}
	for _, family := range families {
		if !strings.Contains(payload, "# TYPE "+family+" ") {
			t.Errorf("family %s missing from /metrics", family)
		}
	}
	// The run job actually moved the executor, store and cache counters.
	if want := `slade_store_op_duration_seconds_count{op="put_job"} `; !strings.Contains(payload, want) {
		t.Errorf("expected %q in /metrics\n---\n%s", want, payload)
	}
	for _, family := range []string{"slade_executor_bins_issued_total", "slade_cache_builds_total"} {
		if !counterPositive(t, payload, family) {
			t.Errorf("%s did not move:\n%s", family, payload)
		}
	}

	// The scrape holds up on further passes with warm decompose traffic
	// running against it (the /metrics route's own series now exists and
	// every exposition taken mid-update still carries every family).
	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer func() {
		close(stop)
		wg.Wait()
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(ts.URL+"/v1/decompose", "application/json", strings.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	for i := 0; i < 5; i++ {
		again, _ := scrapeMetrics(t, ts.URL)
		for _, family := range families {
			if !strings.Contains(again, "# TYPE "+family+" ") {
				t.Errorf("scrape %d under load: family %s missing", i, family)
			}
		}
	}
}

// TestAdmissionControlSheds pins the acceptance criterion: with
// MaxQueueWait configured and the solve slots' queue-wait p95 over it —
// from real queued solves, see saturateSolveSlots — solve-submitting
// routes shed with 429 + Retry-After while read routes keep serving;
// without the limit nothing sheds.
func TestAdmissionControlSheds(t *testing.T) {
	const limit = 10 * time.Millisecond
	svc, ts := newMetricsServer(t, Config{CacheSize: 8, Workers: 1, MaxQueueWait: limit})
	saturateSolveSlots(t, svc, 5*limit)

	body := fmt.Sprintf(`{"bins":%s,"n":10,"threshold":0.9}`, table1JSON)
	resp, raw := postJSON(t, ts.URL+"/v1/decompose", body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated decompose: %d want 429 (%s)", resp.StatusCode, raw)
	}
	if !strings.Contains(string(raw), "queue wait") {
		t.Errorf("shed error body: %s", raw)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 || ra > 60 {
		t.Fatalf("Retry-After %q, want integer in [1,60]", resp.Header.Get("Retry-After"))
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/jobs", fmt.Sprintf(`{"bins":%s,"n":10,"threshold":0.9}`, table1JSON)); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated job submit: %d want 429", resp.StatusCode)
	}
	// Read routes stay up while shedding.
	if resp := getJSON(t, ts.URL+"/v1/stats", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("stats under shed: %d", resp.StatusCode)
	}
	payload, _ := scrapeMetrics(t, ts.URL)
	if !counterPositive(t, payload, "slade_admission_rejected_total") {
		t.Errorf("rejected counter did not move:\n%s", payload)
	}

	// Unconfigured limit: the same saturation sheds nothing.
	svc2, ts2 := newMetricsServer(t, Config{CacheSize: 8, Workers: 1})
	saturateSolveSlots(t, svc2, 5*limit)
	if resp, raw := postJSON(t, ts2.URL+"/v1/decompose", body); resp.StatusCode != http.StatusOK {
		t.Fatalf("decompose without admission limit: %d (%s)", resp.StatusCode, raw)
	}
}

// saturateSolveSlots produces real queue wait on a Workers: 1 service: the
// test holds the only solve slot while four Decompose calls queue behind
// it, keeps holding for hold, then lets them drain. Every wait is at least
// hold by construction — nothing depends on load or scheduling luck.
func saturateSolveSlots(t *testing.T, svc *Service, hold time.Duration) {
	t.Helper()
	if err := svc.sharded.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	in := core.MustHomogeneous(binset.Table1(), 10, 0.9)
	var queued []<-chan error
	for i := 0; i < 4; i++ {
		queued = append(queued, queueSolve(context.Background(), func(ctx context.Context) error {
			_, err := svc.DecomposeWith(ctx, svc.DefaultSolver(), in)
			return err
		}))
	}
	time.Sleep(hold)
	svc.sharded.release()
	for _, done := range queued {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestAdmissionControlRecovers pins the windowed-signal fix: the
// admission p95 is computed over recent windows of the cumulative
// queue-wait histogram, so once the pool stops producing high waits the
// overload ages out and shedding stops — it must not latch on the
// since-boot distribution and 429 forever.
func TestAdmissionControlRecovers(t *testing.T) {
	oldWindow := admissionWindow
	admissionWindow = 50 * time.Millisecond
	defer func() { admissionWindow = oldWindow }()

	svc, ts := newMetricsServer(t, Config{CacheSize: 8, Workers: 2, MaxQueueWait: 100 * time.Millisecond})
	for i := 0; i < 100; i++ {
		svc.sharded.Obs.QueueWait.Observe(2.0)
	}
	body := fmt.Sprintf(`{"bins":%s,"n":10,"threshold":0.9}`, table1JSON)
	resp, raw := postJSON(t, ts.URL+"/v1/decompose", body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated decompose: %d want 429 (%s)", resp.StatusCode, raw)
	}

	// The pool "drains": no further queue-wait observations. Requests keep
	// probing until the stale windows rotate out; each probe resets the
	// recompute-cache stamp so every attempt re-evaluates the signal.
	deadline := time.Now().Add(5 * time.Second)
	for {
		time.Sleep(admissionWindow)
		svc.metrics.admissionAtNS.Store(0)
		resp, raw = postJSON(t, ts.URL+"/v1/decompose", body)
		if resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("admission control never recovered after the pool drained: %d (%s)", resp.StatusCode, raw)
		}
	}
}

// TestRequestIDs: an inbound X-Request-ID is echoed; absent one, or over
// 128 bytes, or with a byte outside visible ASCII, the middleware mints a
// unique id per request.
func TestRequestIDs(t *testing.T) {
	_, ts := newMetricsServer(t, Config{CacheSize: 8, Workers: 2})
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/healthz", nil)
	req.Header.Set("X-Request-ID", "caller-supplied-7")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "caller-supplied-7" {
		t.Fatalf("inbound request id not echoed: %q", got)
	}
	for _, bad := range []string{strings.Repeat("a", 64<<10), strings.Repeat("a", 129), "two words"} {
		req.Header.Set("X-Request-ID", bad)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if got := resp.Header.Get("X-Request-ID"); got == bad || got == "" || len(got) > 32 {
			t.Fatalf("a %d-byte inbound id came back as a %d-byte id, want a minted one", len(bad), len(got))
		}
	}
	req.Header.Set("X-Request-ID", strings.Repeat("a", 128))
	if resp, err = http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != strings.Repeat("a", 128) {
		t.Fatalf("a 128-byte inbound id was not echoed: %q", got)
	}
	r1 := getJSON(t, ts.URL+"/v1/healthz", nil).Header.Get("X-Request-ID")
	r2 := getJSON(t, ts.URL+"/v1/healthz", nil).Header.Get("X-Request-ID")
	if r1 == "" || r1 == r2 {
		t.Fatalf("minted ids not unique: %q vs %q", r1, r2)
	}
}

// TestStatsQueueWaitSummary: the queue-wait block of /v1/stats reads the
// same histogram the admission check does.
func TestStatsQueueWaitSummary(t *testing.T) {
	svc, ts := newMetricsServer(t, Config{CacheSize: 8, Workers: 2})
	for i := 0; i < 10; i++ {
		svc.sharded.Obs.QueueWait.Observe(0.5)
	}
	var st Stats
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.QueueWait.Count != 10 || st.QueueWait.P95MS <= 0 {
		t.Fatalf("queue-wait summary: %+v", st.QueueWait)
	}
}

// scrapeMetrics fetches and returns the /metrics payload.
func scrapeMetrics(t *testing.T, base string) (payload, contentType string) {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw), resp.Header.Get("Content-Type")
}

// counterPositive reports whether any sample of the family has value > 0.
func counterPositive(t *testing.T, payload, family string) bool {
	t.Helper()
	for _, line := range strings.Split(payload, "\n") {
		if !strings.HasPrefix(line, family) {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			continue
		}
		if v, err := strconv.ParseFloat(fields[len(fields)-1], 64); err == nil && v > 0 {
			return true
		}
	}
	return false
}

// decodeJobID pulls the job status out of a submit response body.
func decodeJobID(raw []byte, st *JobStatus) error {
	return json.Unmarshal(raw, st)
}

// waitTerminalHTTP polls the job over HTTP until it settles.
func waitTerminalHTTP(t *testing.T, base, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		var st JobStatus
		getJSON(t, base+"/v1/jobs/"+id, &st)
		if st.State.Terminal() {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never settled", id)
	return JobStatus{}
}

// doDelete issues a DELETE and closes the body.
func doDelete(t *testing.T, url string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

// TestScrapeTakesNoJobLock scrapes while the test holds the job manager's
// lock: every job count is an instrument the manager writes, so neither
// /metrics nor /v1/stats waits on the lock or walks the job table, and a
// scrape costs the same however many jobs the manager holds.
func TestScrapeTakesNoJobLock(t *testing.T) {
	svc := New(Config{Slog: slog.New(slog.DiscardHandler)})
	defer svc.Close()
	svc.jobs.mu.Lock()
	defer svc.jobs.mu.Unlock()
	for _, scrape := range []struct {
		name string
		read func()
	}{
		{"Metrics", func() { svc.Metrics() }},
		{"Stats", func() { svc.Stats() }},
	} {
		done := make(chan struct{})
		go func() {
			defer close(done)
			scrape.read()
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s waited on the job manager's lock", scrape.name)
		}
	}
}

// BenchmarkMetricsScrape renders /metrics with 10^3 and with 10^5 terminal
// jobs resident, inserted straight into the table as a daemon at the
// default -result-ttl 0 accumulates them. The two rows read alike: no
// series walks the table.
func BenchmarkMetricsScrape(b *testing.B) {
	for _, n := range []int{1_000, 100_000} {
		b.Run(fmt.Sprintf("jobs=%d", n), func(b *testing.B) {
			svc := New(Config{Slog: slog.New(slog.DiscardHandler)})
			defer svc.Close()
			for i := range n {
				id := fmt.Sprintf("job-%d", i+1)
				svc.jobs.jobs.byID[id] = &job{id: id, kind: KindSolve, state: JobDone}
			}
			b.ResetTimer()
			for range b.N {
				svc.Metrics()
			}
		})
	}
}
