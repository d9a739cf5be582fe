package service

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestAPIContract pins the v1 wire contract with golden files: one fixed
// request script runs against a fresh service, and every response —
// status, representative headers, and the body with volatile values
// scrubbed — must match testdata/contract/<step>.golden byte for byte.
// Regenerate after an intentional contract change with
//
//	go test ./internal/service -run TestAPIContract -update-contract
//
// and review the goldens in the diff like any other code.
var updateContract = flag.Bool("update-contract", false, "rewrite API contract golden files")

// volatileKeys marks JSON fields whose values vary run to run (ids
// minted per process are fine — the script is fixed — but wall-clock,
// build info, and latency numbers are not). The whole subtree under a
// volatile key is reduced to typed placeholders, so the golden still
// pins its shape.
var volatileKeys = map[string]bool{
	"request_id":     true,
	"elapsed_ms":     true,
	"submitted":      true,
	"started":        true,
	"finished":       true,
	"created":        true,
	"last_activity":  true,
	"at":             true,
	"uptime_seconds": true,
	"go_version":     true,
	"version":        true,
	"revision":       true,
	"makespan_ms":    true,
	"latency":        true,
	"queue_wait":     true,
	"endpoints":      true,
}

func scrubJSON(v any, volatile bool) any {
	switch x := v.(type) {
	case map[string]any:
		for k, val := range x {
			x[k] = scrubJSON(val, volatile || volatileKeys[k])
		}
		return x
	case []any:
		for i := range x {
			x[i] = scrubJSON(x[i], volatile)
		}
		return x
	default:
		if !volatile {
			return v
		}
		switch x.(type) {
		case string:
			return "<string>"
		case float64:
			return "<number>"
		case bool:
			return "<bool>"
		case nil:
			return nil
		}
		return "<value>"
	}
}

// scrubBody canonicalizes a response body: JSON re-marshals with sorted
// keys and volatile values replaced; SSE bodies are scrubbed line by
// line (the data payloads are JSON); anything else passes through.
func scrubBody(t *testing.T, contentType string, body []byte) string {
	t.Helper()
	switch {
	case strings.HasPrefix(contentType, "application/json"):
		var v any
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatalf("unparsable JSON body: %v\n%s", err, body)
		}
		out, err := json.MarshalIndent(scrubJSON(v, false), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return string(out) + "\n"
	case strings.HasPrefix(contentType, "application/x-ndjson"):
		var b strings.Builder
		for _, line := range strings.Split(strings.TrimSuffix(string(body), "\n"), "\n") {
			var v any
			if err := json.Unmarshal([]byte(line), &v); err != nil {
				t.Fatalf("unparsable NDJSON line: %v\n%s", err, line)
			}
			out, err := json.Marshal(scrubJSON(v, false))
			if err != nil {
				t.Fatal(err)
			}
			b.Write(out)
			b.WriteByte('\n')
		}
		return b.String()
	case strings.HasPrefix(contentType, "text/event-stream"):
		var b strings.Builder
		for _, line := range strings.Split(string(body), "\n") {
			if data, ok := strings.CutPrefix(line, "data: "); ok {
				var v any
				if err := json.Unmarshal([]byte(data), &v); err != nil {
					t.Fatalf("unparsable SSE data line: %v\n%s", err, data)
				}
				out, err := json.Marshal(scrubJSON(v, false))
				if err != nil {
					t.Fatal(err)
				}
				b.WriteString("data: ")
				b.Write(out)
			} else {
				b.WriteString(line)
			}
			b.WriteByte('\n')
		}
		return strings.TrimSuffix(b.String(), "\n")
	default:
		return string(body)
	}
}

// contractHeaders are the response headers the contract pins.
var contractHeaders = []string{"Content-Type", "X-Accel-Buffering", "Cache-Control", "Retry-After"}

type contractStep struct {
	name    string
	method  string
	path    string
	body    string            // JSON request body ("" for none)
	headers map[string]string // extra request headers
	// before runs setup (e.g. wait for a job to settle) ahead of the call.
	before func(t *testing.T, svc *Service)
}

func contractScript() []contractStep {
	waitDone := func(id string) func(*testing.T, *Service) {
		return func(t *testing.T, svc *Service) {
			t.Helper()
			deadline := time.Now().Add(10 * time.Second)
			for {
				st, err := svc.Jobs().Status(id)
				if err != nil {
					t.Fatal(err)
				}
				if st.State.Terminal() {
					return
				}
				if time.Now().After(deadline) {
					t.Fatalf("job %s never settled", id)
				}
				time.Sleep(2 * time.Millisecond)
			}
		}
	}
	return []contractStep{
		{name: "decompose_ok", method: "POST", path: "/v1/decompose",
			body: fmt.Sprintf(`{"bins":%s,"n":12,"threshold":0.9,"include_plan":true}`, table1JSON)},
		{name: "decompose_ndjson", method: "POST", path: "/v1/decompose",
			body:    fmt.Sprintf(`{"bins":%s,"n":12,"threshold":0.9,"include_plan":true}`, table1JSON),
			headers: map[string]string{"Accept": "application/x-ndjson"}},
		{name: "decompose_invalid", method: "POST", path: "/v1/decompose",
			body: `{"bins":[],"n":5,"threshold":0.9}`},
		{name: "decompose_over_limit", method: "POST", path: "/v1/decompose",
			body: fmt.Sprintf(`{"bins":%s,"n":1000000000000,"threshold":0.9}`, table1JSON)},
		{name: "decompose_unknown_solver", method: "POST", path: "/v1/decompose",
			body: fmt.Sprintf(`{"bins":%s,"n":5,"threshold":0.9,"solver":"nope"}`, table1JSON)},
		{name: "batch_ok", method: "POST", path: "/v1/decompose/batch",
			body: fmt.Sprintf(`{"bins":%s,"instances":[{"n":12,"threshold":0.9},{"thresholds":[0.5,0.86]}]}`, table1JSON)},
		{name: "batch_bad_member", method: "POST", path: "/v1/decompose/batch",
			body: fmt.Sprintf(`{"bins":%s,"instances":[{"n":12,"threshold":0.9},{"n":3}]}`, table1JSON)},
		// job-1: solve job, then status / plan / SSE.
		{name: "job_submit_solve", method: "POST", path: "/v1/jobs",
			body: fmt.Sprintf(`{"kind":"solve","bins":%s,"n":12,"threshold":0.9}`, table1JSON)},
		{name: "job_status_done", method: "GET", path: "/v1/jobs/job-1",
			before: waitDone("job-1")},
		{name: "job_status_plan", method: "GET", path: "/v1/jobs/job-1?include_plan=true"},
		{name: "job_events_sse", method: "GET", path: "/v1/jobs/job-1/events"},
		{name: "job_events_sse_resume", method: "GET", path: "/v1/jobs/job-1/events",
			headers: map[string]string{"Last-Event-ID": "1"}},
		{name: "job_cancel_terminal_conflict", method: "DELETE", path: "/v1/jobs/job-1"},
		{name: "job_unknown", method: "GET", path: "/v1/jobs/job-999"},
		// job-2: run job with a fixed seed; report is deterministic.
		{name: "job_submit_run", method: "POST", path: "/v1/jobs",
			body: fmt.Sprintf(`{"kind":"run","bins":%s,"n":24,"threshold":0.9,"run":{"platform":"jelly","seed":7,"positive_rate":0.5}}`, table1JSON)},
		{name: "job_status_run_report", method: "GET", path: "/v1/jobs/job-2",
			before: waitDone("job-2")},
		// stream-1: full incremental-ingest lifecycle.
		{name: "stream_open", method: "POST", path: "/v1/streams",
			body: fmt.Sprintf(`{"bins":%s,"threshold":0.9}`, table1JSON)},
		{name: "stream_append", method: "POST", path: "/v1/streams/stream-1/tasks",
			body: `{"tasks":[0,1,2,3,4,5,6]}`},
		{name: "stream_append_duplicate", method: "POST", path: "/v1/streams/stream-1/tasks",
			body: `{"tasks":[3]}`},
		{name: "stream_plan_before_flush", method: "GET", path: "/v1/streams/stream-1?include_plan=true"},
		{name: "stream_flush", method: "POST", path: "/v1/streams/stream-1/flush"},
		{name: "stream_append_after_flush", method: "POST", path: "/v1/streams/stream-1/tasks",
			body: `{"tasks":[7]}`},
		{name: "stream_status_plan", method: "GET", path: "/v1/streams/stream-1?include_plan=true"},
		{name: "stream_delete", method: "DELETE", path: "/v1/streams/stream-1"},
		{name: "stream_unknown", method: "GET", path: "/v1/streams/stream-1"},
		{name: "healthz", method: "GET", path: "/v1/healthz"},
		{name: "stats", method: "GET", path: "/v1/stats"},
	}
}

func TestAPIContract(t *testing.T) {
	svc := New(Config{CacheSize: 8, Workers: 2, Slog: slog.New(slog.DiscardHandler)})
	t.Cleanup(func() { svc.Close() })
	runContractScript(t, svc, filepath.Join("testdata", "contract"), contractScript())
}

// runContractScript replays one golden script against a fresh handler for
// the service: every response is scrubbed, compared (or rewritten with
// -update-contract), and the golden directory is checked for orphans.
func runContractScript(t *testing.T, svc *Service, dir string, steps []contractStep) {
	t.Helper()
	ts := httptest.NewServer(NewHandler(svc))
	t.Cleanup(ts.Close)

	if *updateContract {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}

	seen := map[string]bool{}
	for _, step := range steps {
		if step.before != nil {
			step.before(t, svc)
		}
		var bodyReader io.Reader
		if step.body != "" {
			bodyReader = strings.NewReader(step.body)
		}
		req, err := http.NewRequest(step.method, ts.URL+step.path, bodyReader)
		if err != nil {
			t.Fatal(err)
		}
		if step.body != "" {
			req.Header.Set("Content-Type", "application/json")
		}
		for k, v := range step.headers {
			req.Header.Set(k, v)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: read body: %v", step.name, err)
		}

		var rec bytes.Buffer
		fmt.Fprintf(&rec, "%s %s\n", step.method, step.path)
		if step.headers != nil {
			keys := make([]string, 0, len(step.headers))
			for k := range step.headers {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Fprintf(&rec, "> %s: %s\n", k, step.headers[k])
			}
		}
		fmt.Fprintf(&rec, "status: %d\n", resp.StatusCode)
		for _, h := range contractHeaders {
			if v := resp.Header.Get(h); v != "" {
				fmt.Fprintf(&rec, "%s: %s\n", strings.ToLower(h), v)
			}
		}
		rec.WriteString("\n")
		if len(raw) > 0 {
			rec.WriteString(scrubBody(t, resp.Header.Get("Content-Type"), raw))
		}

		golden := filepath.Join(dir, step.name+".golden")
		seen[step.name+".golden"] = true
		if *updateContract {
			if err := os.WriteFile(golden, rec.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("%s: missing golden (run with -update-contract): %v", step.name, err)
		}
		if !bytes.Equal(rec.Bytes(), want) {
			t.Errorf("%s: contract drift\n--- got ---\n%s--- want ---\n%s", step.name, rec.Bytes(), want)
		}
	}

	// Goldens with no matching step are dead weight (renamed or removed
	// routes); fail so the directory stays authoritative. Subdirectories
	// belong to other scripts (the cluster script keeps its goldens in
	// contract/cluster) and police themselves.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.IsDir() && !seen[e.Name()] {
			t.Errorf("orphan golden %s: no contract step produces it", e.Name())
		}
	}
}
