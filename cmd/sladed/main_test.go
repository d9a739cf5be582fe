package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
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

	// Snapshot without a store must 409, not crash.
	snapResp, err := http.Post(base+"/v1/admin/snapshot", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	snapResp.Body.Close()
	if snapResp.StatusCode != http.StatusConflict {
		t.Fatalf("admin snapshot without store: want 409, got %d", snapResp.StatusCode)
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
// all N results from GET /v1/jobs/{id} and report a warm (non-empty) OPQ
// cache in /v1/stats without rebuilding a single queue.
func TestRestartRecovery(t *testing.T) {
	dataDir := t.TempDir()
	cfg := daemonConfig{
		service: slade.ServiceConfig{CacheSize: 16, Workers: 2},
		dataDir: dataDir,
	}
	const numJobs = 3

	// First life: complete numJobs jobs, snapshot via the admin endpoint,
	// then shut down (which also snapshots).
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

	snapResp, err := http.Post(base+"/v1/admin/snapshot", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Entries int `json:"entries"`
		Bytes   int `json:"bytes"`
	}
	if err := json.NewDecoder(snapResp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	snapResp.Body.Close()
	if snapResp.StatusCode != http.StatusOK || snap.Entries == 0 || snap.Bytes == 0 {
		t.Fatalf("admin snapshot: %d %+v", snapResp.StatusCode, snap)
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
	if st.Cache.Entries == 0 {
		t.Fatalf("cache cold after restart: %+v", st.Cache)
	}
	if st.Cache.Builds != 0 {
		t.Fatalf("restart rebuilt %d queues instead of warm-loading: %+v", st.Cache.Builds, st.Cache)
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
