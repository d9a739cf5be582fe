package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	slade "repro"
	"repro/internal/service"
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
	var st service.Stats
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
	var st service.Stats
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
	var st service.Stats
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

// TestRequestLogOneTimestamp: with a dated logger (log.Default's flags) a
// request line carries one timestamp, slog's time=, not the logger's
// date in front of it.
func TestRequestLogOneTimestamp(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + ln.Addr().String()
	var logs bytes.Buffer // read only after serve has returned
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- serve(ctx, ln, daemonConfig{}, log.New(&logs, "", log.LstdFlags)) }()
	waitHealthy(t, base)
	resp, err := http.Post(base+"/v1/decompose", "application/json",
		strings.NewReader(`{"bins":[{"cardinality":1,"confidence":0.9,"cost":0.1}],"n":5,"threshold":0.9}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("serve returned %v", err)
	}
	var lines int
	for _, line := range strings.Split(logs.String(), "\n") {
		if strings.Contains(line, "route=/v1/decompose") {
			lines++
			if !strings.HasPrefix(line, "time=") {
				t.Errorf("request line does not start with time=: %q", line)
			}
		}
	}
	if lines != 1 {
		t.Fatalf("%d request lines for one decompose:\n%s", lines, logs.String())
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
// a removed flag — -snapshot-interval, or one of the four cluster flags
// -peers, -advertise, -cluster-timeout and -peer-retries — does not start:
// the built binary prints the flag package's usage error and exits 2, as
// for any flag it never had.
func TestRemovedSnapshotFlagIsAUsageError(t *testing.T) {
	bin := buildDaemon(t)
	for _, name := range []string{"-snapshot-interval", "-peers", "-advertise", "-cluster-timeout", "-peer-retries", "-never-existed"} {
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

// buildDaemon builds the sladed binary into a temporary directory and
// returns its path; it skips under -short.
func buildDaemon(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds the binary")
	}
	bin := filepath.Join(t.TempDir(), "sladed")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestLogJSONEveryLine: under -log-json every line the daemon writes to
// stderr is a JSON object — its boot and shutdown lines and the
// store's warnings as well as the request lines. A data dir holding a
// corrupt job record makes the store warn.
func TestLogJSONEveryLine(t *testing.T) {
	bin := buildDaemon(t)
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "jobs"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "jobs", "job-1.json"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, "-log-json", "-data-dir", dir, "-addr", "127.0.0.1:0")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	// Room for every line this run logs (about six), so the reader never
	// blocks on a send after the test has stopped receiving.
	lines := make(chan string, 64)
	go func() {
		defer close(lines)
		for sc := bufio.NewScanner(stderr); sc.Scan(); {
			lines <- sc.Text()
		}
	}()

	var logged []string
	listening := regexp.MustCompile(`sladed listening on (\S+)`)
	var base string
	for timeout := time.After(10 * time.Second); base == ""; {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatalf("daemon exited before listening:\n%s", strings.Join(logged, "\n"))
			}
			logged = append(logged, line)
			if m := listening.FindStringSubmatch(line); m != nil {
				base = "http://" + m[1]
			}
		case <-timeout:
			t.Fatalf("daemon never logged its address:\n%s", strings.Join(logged, "\n"))
		}
	}
	resp, err := http.Post(base+"/v1/decompose", "application/json",
		strings.NewReader(`{"bins":[{"cardinality":1,"confidence":0.9,"cost":0.1}],"n":5,"threshold":0.9}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	for line := range lines {
		logged = append(logged, line)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("sladed exited with %v:\n%s", err, strings.Join(logged, "\n"))
	}

	var msgs []string
	for _, line := range logged {
		var rec struct{ Msg string }
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Errorf("stderr line is not JSON (%v): %q", err, line)
		}
		msgs = append(msgs, rec.Msg)
	}
	all := strings.Join(msgs, "\n")
	for _, want := range []string{"store: warning: skipping corrupt job record job-1.json", "sladed listening on",
		"http request", "sladed shutting down"} {
		if !strings.Contains(all, want) {
			t.Errorf("no JSON line says %q; messages:\n%s", want, all)
		}
	}

	// A daemon that cannot start says why in JSON as well.
	out, err := exec.Command(bin, "-log-json", "-addr", "256.0.0.1:-1").CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("sladed on a bad address: %v, want exit status 1\n%s", err, out)
	}
	var rec struct{ Level, Msg string }
	if err := json.Unmarshal(out, &rec); err != nil || rec.Level != "ERROR" || !strings.HasPrefix(rec.Msg, "sladed: ") {
		t.Errorf("start-up failure under -log-json logged %q (%v), want one JSON error line", out, err)
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
