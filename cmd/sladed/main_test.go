package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	slade "repro"
)

// TestServeEndToEnd boots the daemon on an ephemeral port, exercises the
// round trip a deployment would (health, decompose, stats), and checks
// graceful shutdown.
func TestServeEndToEnd(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + ln.Addr().String()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		cfg := daemonConfig{service: slade.ServiceConfig{CacheSize: 16, Workers: 2}}
		done <- serve(ctx, ln, cfg, log.New(io.Discard, "", 0))
	}()

	waitHealthy(t, base)

	body := `{"bins":[{"cardinality":1,"confidence":0.9,"cost":0.1},
		{"cardinality":2,"confidence":0.85,"cost":0.18},
		{"cardinality":3,"confidence":0.8,"cost":0.24}],
		"n":120,"threshold":0.95}`
	resp, err := http.Post(base+"/v1/decompose", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	var dr struct {
		Solver  string `json:"solver"`
		Summary struct {
			Cost float64 `json:"cost"`
		} `json:"summary"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&dr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || dr.Summary.Cost <= 0 {
		t.Fatalf("decompose: %d %+v", resp.StatusCode, dr)
	}

	sresp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st slade.ServiceStats
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if st.Requests != 1 || st.Cache.Builds != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if st.Persistence.Enabled {
		t.Fatalf("persistence reported enabled without -data-dir: %+v", st.Persistence)
	}

	// The removed snapshot route answers exactly what a path that never
	// existed answers: the mux's 404.
	gone, never := postEmpty(t, base+"/v1/admin/snapshot"), postEmpty(t, base+"/v1/admin/never-existed")
	if gone.status != http.StatusNotFound || gone != never {
		t.Fatalf("POST /v1/admin/snapshot: got %+v, an unregistered path gets %+v", gone, never)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve returned %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not shut down")
	}
}

// TestRestartRecovery is the durability acceptance test: a daemon started
// with -data-dir, killed after N completed jobs, and restarted must serve
// all N results from GET /v1/jobs/{id} without solving anything again.
func TestRestartRecovery(t *testing.T) {
	dataDir := t.TempDir()
	cfg := daemonConfig{
		service: slade.ServiceConfig{CacheSize: 16, Workers: 2},
		dataDir: dataDir,
	}
	const numJobs = 3

	// First life: complete numJobs jobs, then shut down.
	base, shutdown := startDaemon(t, cfg)
	jobIDs := make([]string, 0, numJobs)
	for i := 0; i < numJobs; i++ {
		body := fmt.Sprintf(`{"bins":[{"cardinality":1,"confidence":0.9,"cost":0.1},
			{"cardinality":2,"confidence":0.85,"cost":0.18}],
			"n":%d,"threshold":0.9}`, 100+10*i)
		resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		var st struct {
			ID string `json:"id"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted || st.ID == "" {
			t.Fatalf("submit job: %d %+v", resp.StatusCode, st)
		}
		jobIDs = append(jobIDs, st.ID)
	}
	for _, id := range jobIDs {
		waitJobDone(t, base, id)
	}

	shutdown()

	// Second life: same data dir, fresh process state.
	base, shutdown = startDaemon(t, cfg)
	defer shutdown()

	for _, id := range jobIDs {
		resp, err := http.Get(base + "/v1/jobs/" + id + "?include_plan=true")
		if err != nil {
			t.Fatal(err)
		}
		var st struct {
			State   string `json:"state"`
			Solver  string `json:"solver"`
			Summary *struct {
				Cost float64 `json:"cost"`
			} `json:"summary"`
			Plan []struct {
				Cardinality int   `json:"cardinality"`
				Tasks       []int `json:"tasks"`
			} `json:"plan"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("job %s after restart: status %d", id, resp.StatusCode)
		}
		if st.State != "done" || st.Summary == nil || st.Summary.Cost <= 0 || len(st.Plan) == 0 {
			t.Fatalf("job %s after restart: %+v", id, st)
		}
	}

	sresp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st slade.ServiceStats
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if !st.Persistence.Enabled {
		t.Fatalf("persistence not enabled: %+v", st.Persistence)
	}
	if st.Cache.Builds != 0 || st.Requests != 0 {
		t.Fatalf("serving stored results solved again: %+v", st)
	}
	if st.Jobs.Recovered != numJobs {
		t.Fatalf("want %d recovered jobs, got %d", numJobs, st.Jobs.Recovered)
	}
}

// TestRunJobRestartRecovery is the executor-backed acceptance test: a
// daemon killed after N completed run jobs must, on warm boot, serve all
// N execution reports verbatim with zero re-executions (the run counters
// stay at zero — reports are replayed from the store, never re-run).
func TestRunJobRestartRecovery(t *testing.T) {
	dataDir := t.TempDir()
	cfg := daemonConfig{
		service: slade.ServiceConfig{CacheSize: 16, Workers: 2},
		dataDir: dataDir,
	}
	const numJobs = 3

	type report struct {
		Platform   string  `json:"platform"`
		Seed       int64   `json:"seed"`
		Spent      float64 `json:"spent"`
		BinsIssued int     `json:"bins_issued"`
		Covered    int     `json:"covered_tasks"`
		Empirical  float64 `json:"empirical_reliability"`
	}
	type jobView struct {
		State  string  `json:"state"`
		Kind   string  `json:"kind"`
		Report *report `json:"report"`
	}

	// First life: run numJobs "kind":"run" jobs to completion.
	base, shutdown := startDaemon(t, cfg)
	firstReports := make(map[string]report, numJobs)
	ids := make([]string, 0, numJobs)
	for i := 0; i < numJobs; i++ {
		body := fmt.Sprintf(`{"kind":"run",
			"bins":[{"cardinality":1,"confidence":0.9,"cost":0.1},
				{"cardinality":2,"confidence":0.85,"cost":0.18}],
			"n":%d,"threshold":0.9,
			"run":{"platform":"jelly","seed":%d}}`, 40+10*i, 100+i)
		resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		var st struct {
			ID string `json:"id"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted || st.ID == "" {
			t.Fatalf("submit run job: %d %+v", resp.StatusCode, st)
		}
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		waitJobDone(t, base, id)
		var jv jobView
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(resp.Body).Decode(&jv); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if jv.Report == nil || jv.Report.BinsIssued == 0 {
			t.Fatalf("job %s finished without a report: %+v", id, jv)
		}
		firstReports[id] = *jv.Report
	}
	shutdown()

	// Second life: every report is served verbatim, nothing re-executes.
	base, shutdown = startDaemon(t, cfg)
	defer shutdown()
	for _, id := range ids {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var jv jobView
		if err := json.NewDecoder(resp.Body).Decode(&jv); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || jv.State != "done" || jv.Kind != "run" {
			t.Fatalf("job %s after restart: %d %+v", id, resp.StatusCode, jv)
		}
		if jv.Report == nil || *jv.Report != firstReports[id] {
			t.Fatalf("job %s report changed across restart:\nbefore %+v\nafter  %+v", id, firstReports[id], jv.Report)
		}
	}
	sresp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st slade.ServiceStats
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if st.Jobs.Recovered != numJobs {
		t.Fatalf("want %d recovered run jobs, got %d", numJobs, st.Jobs.Recovered)
	}
	if st.Jobs.Runs != 0 || st.Jobs.RunBinsIssued != 0 {
		t.Fatalf("warm boot re-executed run jobs: %+v", st.Jobs)
	}
}

// startDaemon boots serve on an ephemeral port and returns the base URL
// and a shutdown func that waits for a clean exit.
func startDaemon(t *testing.T, cfg daemonConfig) (string, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + ln.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- serve(ctx, ln, cfg, log.New(io.Discard, "", 0)) }()
	waitHealthy(t, base)
	return base, func() {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("serve returned %v", err)
			}
		case <-time.After(15 * time.Second):
			t.Fatal("daemon did not shut down")
		}
	}
}

// waitJobDone polls a job until it settles Done.
func waitJobDone(t *testing.T, base, id string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st struct {
			State string `json:"state"`
			Error string `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		switch st.State {
		case "done":
			return
		case "failed", "canceled":
			t.Fatalf("job %s settled %s: %s", id, st.State, st.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
}

// reply is what a client can tell two responses apart by.
type reply struct {
	status            int
	contentType, body string
}

// postEmpty POSTs an empty body and returns the reply.
func postEmpty(t *testing.T, url string) reply {
	t.Helper()
	resp, err := http.Post(url, "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return reply{resp.StatusCode, resp.Header.Get("Content-Type"), string(body)}
}

func waitHealthy(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("daemon never became healthy")
}

// TestPeersAcceptedNotDialled: a daemon given -peers says once at start
// that they are not dialled, serves a decompose with both peers
// unreachable, and reports them "unused" — not healthy — in /v1/healthz.
func TestPeersAcceptedNotDialled(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + ln.Addr().String()
	var logs bytes.Buffer // read only after serve has returned
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	cfg := daemonConfig{service: slade.ServiceConfig{Peers: splitPeers("http://b.invalid:8080, http://c.invalid:8080"), ClusterSelf: "http://a.invalid:8080"}}
	go func() { done <- serve(ctx, ln, cfg, log.New(&logs, "", 0)) }()
	waitHealthy(t, base)

	body := `{"bins":[{"cardinality":1,"confidence":0.9,"cost":0.1}],"n":500,"threshold":0.9}`
	resp, err := http.Post(base+"/v1/decompose", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("decompose with unreachable peers: status %d", resp.StatusCode)
	}
	resp, err = http.Get(base + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h struct {
		Cluster struct {
			Peers []struct{ URL, State string }
		}
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(h.Cluster.Peers) != 2 || h.Cluster.Peers[0].State != "unused" || h.Cluster.Peers[1].State != "unused" {
		t.Fatalf("healthz peers: %+v", h.Cluster.Peers)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("serve returned %v", err)
	}
	if n := bytes.Count(logs.Bytes(), []byte("2 peers accepted for compatibility and not dialled")); n != 1 {
		t.Fatalf("compatibility notice logged %d times, want once:\n%s", n, logs.Bytes())
	}
}

// TestRunBadAddr covers the listener-error path.
func TestRunBadAddr(t *testing.T) {
	err := run(context.Background(), "256.0.0.1:-1", daemonConfig{}, log.New(io.Discard, "", 0))
	if err == nil {
		t.Fatal("want listen error")
	}
}

// TestRemovedSnapshotFlagIsAUsageError: an old unit file that still passes
// -snapshot-interval does not start — the built binary prints the flag
// package's usage error and exits 2, as for any flag it never had.
func TestRemovedSnapshotFlagIsAUsageError(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary")
	}
	bin := filepath.Join(t.TempDir(), "sladed")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, name := range []string{"-snapshot-interval", "-never-existed"} {
		out, err := exec.Command(bin, name, "5m").CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("sladed %s 5m: %v, want exit status 2\n%s", name, err, out)
		}
		if want := "flag provided but not defined: " + name; !strings.Contains(string(out), want) || !strings.Contains(string(out), "Usage of") {
			t.Fatalf("sladed %s 5m printed no usage error:\n%s", name, out)
		}
	}
}

// lockedBuffer is a log sink a test may read while the daemon writes it.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestRunLeaksNoGoroutine: run with a data dir, having served one
// decompose and one run job, returns nil when its context is cancelled
// and leaves no goroutine behind — listener, connections, job workers,
// batcher timers and the TTL janitor all stop.
func TestRunLeaksNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	var logs lockedBuffer
	cfg := daemonConfig{
		service: slade.ServiceConfig{CacheSize: 16, Workers: 2, ResultTTL: time.Hour, BatchWindow: slade.DefaultBatchWindow},
		dataDir: t.TempDir(),
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- run(ctx, "127.0.0.1:0", cfg, log.New(&logs, "", 0)) }()

	listening := regexp.MustCompile(`sladed listening on (\S+)`)
	var base string
	for deadline := time.Now().Add(10 * time.Second); base == ""; time.Sleep(5 * time.Millisecond) {
		if m := listening.FindStringSubmatch(logs.String()); m != nil {
			base = "http://" + m[1]
		} else if time.Now().After(deadline) {
			t.Fatalf("daemon never logged its address:\n%s", logs.String())
		}
	}
	// A client of the test's own, so its connections can be dropped
	// before goroutines are counted.
	client := &http.Client{Transport: &http.Transport{}}
	post := func(path, body string) []byte {
		t.Helper()
		resp, err := client.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode >= 300 {
			t.Fatalf("POST %s: status %d, %v: %s", path, resp.StatusCode, err, raw)
		}
		return raw
	}
	const menu = `[{"cardinality":1,"confidence":0.9,"cost":0.1},{"cardinality":2,"confidence":0.85,"cost":0.18}]`
	post("/v1/decompose", `{"bins":`+menu+`,"n":120,"threshold":0.95}`)
	var job struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(post("/v1/jobs", `{"kind":"run","bins":`+menu+`,"n":40,"threshold":0.9,"run":{"platform":"jelly","seed":7}}`), &job); err != nil {
		t.Fatal(err)
	}
	waitJobDone(t, base, job.ID)

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("run did not return")
	}
	client.CloseIdleConnections()
	http.DefaultClient.CloseIdleConnections() // waitJobDone polls through it
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines after run returned, %d before it started:\n%s", runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
	}
}
