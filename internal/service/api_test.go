package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/binset"
	"repro/internal/core"
	"repro/internal/opq"
)

func newTestServer(t *testing.T) (*Service, *httptest.Server) {
	t.Helper()
	svc := New(Config{CacheSize: 8, Workers: 2, Slog: slog.New(slog.DiscardHandler)})
	ts := httptest.NewServer(NewHandler(svc))
	t.Cleanup(ts.Close)
	return svc, ts
}

// table1JSON is the Table-1 menu in wire form.
const table1JSON = `[{"cardinality":1,"confidence":0.9,"cost":0.1},
	{"cardinality":2,"confidence":0.85,"cost":0.18},
	{"cardinality":3,"confidence":0.8,"cost":0.24}]`

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func getJSON(t *testing.T, url string, dst any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if dst != nil {
		if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
			t.Fatal(err)
		}
	}
	return resp
}

func TestHTTPDecompose(t *testing.T) {
	_, ts := newTestServer(t)
	body := fmt.Sprintf(`{"bins":%s,"n":100,"threshold":0.95,"include_plan":true}`, table1JSON)
	resp, raw := postJSON(t, ts.URL+"/v1/decompose", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	dr := assertMarshalledPlanReply[decomposeResponse](t, raw)
	if dr.Solver != DefaultSolverName || dr.N != 100 {
		t.Fatalf("response header fields: %+v", dr)
	}
	// The served plan must match the library's own OPQ-Based solve.
	menu := binset.Table1()
	in := core.MustHomogeneous(menu, 100, 0.95)
	ref, err := (opq.Solver{}).Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if want := ref.MustCost(menu); dr.Summary.Cost != want {
		t.Fatalf("served cost %v != library cost %v", dr.Summary.Cost, want)
	}
	if err := validateUses(dr.Plan, in); err != nil {
		t.Fatalf("served plan invalid: %v", err)
	}
}

// validateUses checks a use list decoded off the wire as a plan for in.
func validateUses(uses []core.BinUse, in *core.Instance) error {
	plan, err := core.PlanFromUses(uses)
	if err != nil {
		return err
	}
	return plan.Validate(in)
}

func TestHTTPDecomposeHeterogeneousAndSolverSelection(t *testing.T) {
	_, ts := newTestServer(t)
	body := fmt.Sprintf(`{"bins":%s,"thresholds":[0.5,0.6,0.7,0.86],"solver":"greedy"}`, table1JSON)
	resp, raw := postJSON(t, ts.URL+"/v1/decompose", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var dr decomposeResponse
	if err := json.Unmarshal(raw, &dr); err != nil {
		t.Fatal(err)
	}
	if dr.Solver != "greedy" || dr.N != 4 || dr.Summary.Cost <= 0 {
		t.Fatalf("response: %+v", dr)
	}
}

func TestHTTPDecomposeErrors(t *testing.T) {
	_, ts := newTestServer(t)
	for _, tc := range []struct {
		name, body string
		status     int
		code       string
	}{
		{"malformed", `{"bins":`, http.StatusBadRequest, "invalid_request"},
		{"unknown field", `{"bogus":1}`, http.StatusBadRequest, "invalid_request"},
		{"no threshold", fmt.Sprintf(`{"bins":%s,"n":5}`, table1JSON), http.StatusBadRequest, "invalid_request"},
		{"both threshold forms", fmt.Sprintf(`{"bins":%s,"n":5,"threshold":0.9,"thresholds":[0.9]}`, table1JSON), http.StatusBadRequest, "invalid_request"},
		{"bad menu", `{"bins":[{"cardinality":0,"confidence":0.9,"cost":0.1}],"n":5,"threshold":0.9}`, http.StatusBadRequest, "invalid_request"},
		{"unknown solver", fmt.Sprintf(`{"bins":%s,"n":5,"threshold":0.9,"solver":"nope"}`, table1JSON), http.StatusUnprocessableEntity, "unprocessable"},
		// 23 million assignments of this bin meet the threshold; the
		// enumeration used to recurse that deep and kill the process.
		{"unreachable depth", `{"bins":[{"cardinality":1,"confidence":1e-7,"cost":0.01}],"n":1,"threshold":0.9}`, http.StatusUnprocessableEntity, "unprocessable"},
	} {
		resp, raw := postJSON(t, ts.URL+"/v1/decompose", tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d want %d (%s)", tc.name, resp.StatusCode, tc.status, raw)
		}
		var e errorBody
		if err := json.Unmarshal(raw, &e); err != nil || e.Error.Message == "" {
			t.Errorf("%s: no error envelope in %s", tc.name, raw)
			continue
		}
		if e.Error.Code != tc.code {
			t.Errorf("%s: error code %q want %q", tc.name, e.Error.Code, tc.code)
		}
		if e.Error.RequestID == "" || e.Error.RequestID != resp.Header.Get("X-Request-ID") {
			t.Errorf("%s: envelope request id %q != header %q", tc.name, e.Error.RequestID, resp.Header.Get("X-Request-ID"))
		}
	}
	// The daemon is still serving after every refusal above.
	resp, raw := postJSON(t, ts.URL+"/v1/decompose", fmt.Sprintf(`{"bins":%s,"n":5,"threshold":0.9}`, table1JSON))
	if resp.StatusCode != http.StatusOK {
		t.Errorf("request after the refusals: status %d (%s)", resp.StatusCode, raw)
	}
}

func TestHTTPJobRoundTrip(t *testing.T) {
	_, ts := newTestServer(t)
	body := fmt.Sprintf(`{"bins":%s,"n":600,"threshold":0.9}`, table1JSON)
	resp, raw := postJSON(t, ts.URL+"/v1/jobs", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, raw)
	}
	var st JobStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if st.ID == "" {
		t.Fatalf("no job id in %s", raw)
	}

	deadline := time.Now().Add(10 * time.Second)
	var final jobStatusResponse
	for {
		if getJSON(t, ts.URL+"/v1/jobs/"+st.ID+"?include_plan=true", &final); final.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", final.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if final.State != JobDone || final.Summary == nil || len(final.Plan) == 0 {
		t.Fatalf("final status: %+v", final)
	}
	in := core.MustHomogeneous(binset.Table1(), 600, 0.9)
	if err := validateUses(final.Plan, in); err != nil {
		t.Fatalf("served job plan invalid: %v", err)
	}
}

func TestHTTPStreamJob(t *testing.T) {
	_, ts := newTestServer(t)
	body := fmt.Sprintf(`{"kind":"stream","stream":{"bins":%s,"threshold":0.95,
		"batches":[[0,1,2,3,4],[5,6,7,8,9,10,11]]}}`, table1JSON)
	resp, raw := postJSON(t, ts.URL+"/v1/jobs", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, raw)
	}
	var st JobStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		var cur jobStatusResponse
		getJSON(t, ts.URL+"/v1/jobs/"+st.ID, &cur)
		if cur.State.Terminal() {
			if cur.State != JobDone {
				t.Fatalf("stream job: %+v", cur)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("stream job stuck")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestHTTPCancelAndUnknownJob(t *testing.T) {
	svc, ts := newTestServer(t)
	// A slow solver parks the job Running so DELETE exercises live cancel.
	block := make(chan struct{})
	release := func() { close(block) }
	if err := svc.RegisterSolver("slow", core.SolverFunc{
		SolverName: "slow",
		Fn: func(in *core.Instance) (*core.Plan, error) {
			<-block
			return &core.Plan{}, nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	defer release()

	body := fmt.Sprintf(`{"bins":%s,"n":5,"threshold":0.9,"solver":"slow"}`, table1JSON)
	resp, raw := postJSON(t, ts.URL+"/v1/jobs", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, raw)
	}
	var st JobStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status %d", dresp.StatusCode)
	}

	if resp := getJSON(t, ts.URL+"/v1/jobs/nope", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job status %d", resp.StatusCode)
	}

	// DELETE of an unknown id is 404 (gone), not 409 (bad state).
	dreq, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/nope", nil)
	if err != nil {
		t.Fatal(err)
	}
	uresp, err := http.DefaultClient.Do(dreq)
	if err != nil {
		t.Fatal(err)
	}
	uresp.Body.Close()
	if uresp.StatusCode != http.StatusNotFound {
		t.Fatalf("cancel unknown job: status %d, want 404", uresp.StatusCode)
	}
}

func TestHTTPStreamJobRejectsSolverAndDuplicates(t *testing.T) {
	_, ts := newTestServer(t)
	for name, body := range map[string]string{
		"solver on stream job": fmt.Sprintf(`{"kind":"stream","solver":"greedy","stream":{"bins":%s,"threshold":0.9,"batches":[[0,1]]}}`, table1JSON),
		"duplicate task ids":   fmt.Sprintf(`{"kind":"stream","stream":{"bins":%s,"threshold":0.9,"batches":[[0,0,0]]}}`, table1JSON),
	} {
		resp, raw := postJSON(t, ts.URL+"/v1/jobs", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d want 400 (%s)", name, resp.StatusCode, raw)
		}
	}
}

// TestHTTPRunJob drives the "kind":"run" wire path end to end: submit,
// poll to done, and read the execution report (and plan) back.
func TestHTTPRunJob(t *testing.T) {
	_, ts := newTestServer(t)
	body := fmt.Sprintf(`{"kind":"run","bins":%s,"n":80,"threshold":0.9,
		"run":{"platform":"jelly","seed":9,"positive_rate":0.4}}`, table1JSON)
	resp, raw := postJSON(t, ts.URL+"/v1/jobs", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, raw)
	}
	var st JobStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if st.Kind != KindRun {
		t.Fatalf("submitted kind %q", st.Kind)
	}

	deadline := time.Now().Add(10 * time.Second)
	var final jobStatusResponse
	for {
		if getJSON(t, ts.URL+"/v1/jobs/"+st.ID+"?include_plan=true", &final); final.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("run job stuck in %s", final.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if final.State != JobDone {
		t.Fatalf("run job settled %s: %s", final.State, final.Error)
	}
	rep := final.Report
	if rep == nil || rep.Platform != "jelly" || rep.Seed != 9 || rep.Tasks != 80 {
		t.Fatalf("served report: %+v", rep)
	}
	if rep.Spent <= 0 || rep.BinsIssued <= 0 {
		t.Fatalf("empty execution: %+v", rep)
	}
	if len(final.Plan) == 0 || final.Summary == nil {
		t.Fatalf("run job response missing plan/summary: %+v", final)
	}

	// The execution counters surface in /v1/stats.
	var stats Stats
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if stats.Jobs.Runs != 1 || stats.Jobs.RunBinsIssued != uint64(rep.BinsIssued) {
		t.Fatalf("run counters: %+v", stats.Jobs)
	}
}

// TestHTTPRunJobKindAliasesAndErrors: the retired "type" alias of the
// discriminator is rejected like any unknown field, and a run payload on
// a solve job is an error rather than silently dropped.
func TestHTTPRunJobKindAliasesAndErrors(t *testing.T) {
	_, ts := newTestServer(t)
	for name, body := range map[string]string{
		`"type" is rejected`:   fmt.Sprintf(`{"type":"run","bins":%s,"n":10,"threshold":0.9}`, table1JSON),
		"unknown kind":         fmt.Sprintf(`{"kind":"warp","bins":%s,"n":10,"threshold":0.9}`, table1JSON),
		"run payload on solve": fmt.Sprintf(`{"bins":%s,"n":10,"threshold":0.9,"run":{"seed":1}}`, table1JSON),
		"stream payload on run": fmt.Sprintf(`{"kind":"run","bins":%s,"n":10,"threshold":0.9,
			"stream":{"bins":%s,"threshold":0.9,"batches":[[0]]}}`, table1JSON, table1JSON),
		"oversized pool": fmt.Sprintf(`{"kind":"run","bins":%s,"n":10,"threshold":0.9,
			"run":{"pool_size":1000001}}`, table1JSON),
		"bad platform model": fmt.Sprintf(`{"kind":"run","bins":%s,"n":10,"threshold":0.9,"run":{"platform":"x"}}`, table1JSON),
		"bad truth length":   fmt.Sprintf(`{"kind":"run","bins":%s,"n":10,"threshold":0.9,"run":{"truth":[true]}}`, table1JSON),
	} {
		resp, raw := postJSON(t, ts.URL+"/v1/jobs", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d want 400 (%s)", name, resp.StatusCode, raw)
		}
	}
}

func TestHTTPHealthzAndStats(t *testing.T) {
	_, ts := newTestServer(t)
	var hz Health
	if resp := getJSON(t, ts.URL+"/v1/healthz", &hz); resp.StatusCode != http.StatusOK || hz.Status != "ok" {
		t.Fatalf("healthz: %d %+v", resp.StatusCode, hz)
	}
	if hz.UptimeSeconds < 0 || hz.GoVersion == "" {
		t.Fatalf("healthz payload missing uptime/build info: %+v", hz)
	}
	if hz.Persistence.Enabled || !hz.Persistence.Writable {
		t.Fatalf("storeless service must report persistence disabled but writable: %+v", hz.Persistence)
	}

	// Warm the cache with two identical requests, then read the counters.
	body := fmt.Sprintf(`{"bins":%s,"n":50,"threshold":0.9}`, table1JSON)
	postJSON(t, ts.URL+"/v1/decompose", body)
	postJSON(t, ts.URL+"/v1/decompose", body)

	var st Stats
	if resp := getJSON(t, ts.URL+"/v1/stats", &st); resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d", resp.StatusCode)
	}
	if st.Requests != 2 || st.Errors != 0 {
		t.Fatalf("request counters: %+v", st)
	}
	if st.Cache.Builds != 1 || st.Cache.Hits != 1 {
		t.Fatalf("warm request should hit the cache: %+v", st.Cache)
	}
	if len(st.Solvers) == 0 || st.Workers <= 0 {
		t.Fatalf("stats payload: %+v", st)
	}
	// The histogram-backed latency summary replaced the lone global mean.
	if st.Latency.Count != 2 || st.Latency.P95MS <= 0 || st.Latency.P50MS > st.Latency.P99MS {
		t.Fatalf("solve latency summary: %+v", st.Latency)
	}
	var decompose *EndpointStats
	for i := range st.Endpoints {
		if st.Endpoints[i].Route == "/v1/decompose" {
			decompose = &st.Endpoints[i]
		}
	}
	if decompose == nil || decompose.Requests != 2 || decompose.Status["2xx"] != 2 {
		t.Fatalf("per-endpoint stats: %+v", st.Endpoints)
	}
	if decompose.Latency.Count != 2 || decompose.Latency.P99MS < decompose.Latency.P50MS {
		t.Fatalf("endpoint latency summary: %+v", decompose.Latency)
	}
}

// TestStatusForSummarizeError pins the status mapping of server-side
// summarize failures: unlike ordinary solve errors (422, the client's
// instance was unsolvable), a failure to summarize a plan our own
// solver produced is an internal invariant break and must surface as
// 500 so operators' 5xx monitoring sees it.
func TestStatusForSummarizeError(t *testing.T) {
	if got := statusFor(fmt.Errorf("%w: boom", errSummarize)); got != http.StatusInternalServerError {
		t.Errorf("summarize error mapped to %d, want 500", got)
	}
	if got := statusFor(fmt.Errorf("service: unknown solver")); got != http.StatusUnprocessableEntity {
		t.Errorf("solve error mapped to %d, want 422", got)
	}
}

// TestHTTPDecomposeBatch pins the batch endpoint's contract: per-instance
// results come back in request order and each instance's cost exactly
// equals a solo solve — with and without the request batcher coalescing
// the members into one window.
func TestHTTPDecomposeBatch(t *testing.T) {
	menu := binset.Table1()
	shapes := []struct {
		n int
		t float64
	}{{100, 0.95}, {250, 0.9}, {37, 0.95}, {100, 0.95}}
	want := make([]float64, len(shapes))
	for i, sh := range shapes {
		in := core.MustHomogeneous(menu, sh.n, sh.t)
		ref, err := (opq.Solver{}).Solve(in)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = ref.MustCost(menu)
	}
	body := fmt.Sprintf(`{"bins":%s,"instances":[
		{"n":100,"threshold":0.95},{"n":250,"threshold":0.9},
		{"n":37,"threshold":0.95},{"n":100,"threshold":0.95}]}`, table1JSON)

	for name, cfg := range map[string]Config{
		"unbatched": {CacheSize: 8, Workers: 2},
		"batched":   {CacheSize: 8, Workers: 4, BatchWindow: 2 * time.Millisecond},
	} {
		t.Run(name, func(t *testing.T) {
			svc := New(cfg)
			t.Cleanup(func() { svc.Close() })
			ts := httptest.NewServer(NewHandler(svc))
			t.Cleanup(ts.Close)

			resp, raw := postJSON(t, ts.URL+"/v1/decompose/batch", body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, raw)
			}
			var br batchDecomposeResponse
			if err := json.Unmarshal(raw, &br); err != nil {
				t.Fatal(err)
			}
			if br.Solver != DefaultSolverName || br.Instances != len(shapes) || len(br.Results) != len(shapes) {
				t.Fatalf("batch response header: %+v", br)
			}
			for i, res := range br.Results {
				if res.N != shapes[i].n {
					t.Errorf("result %d: n %d want %d (order lost?)", i, res.N, shapes[i].n)
				}
				if res.Summary.Cost != want[i] {
					t.Errorf("result %d: cost %v != solo cost %v", i, res.Summary.Cost, want[i])
				}
			}
		})
	}
}

// TestHTTPDecomposeBatchErrors: an invalid member fails the whole batch
// with its index in the message, before any solving happens.
func TestHTTPDecomposeBatchErrors(t *testing.T) {
	_, ts := newTestServer(t)
	for name, tc := range map[string]struct {
		body   string
		status int
	}{
		"no instances":   {fmt.Sprintf(`{"bins":%s,"instances":[]}`, table1JSON), http.StatusBadRequest},
		"bad member":     {fmt.Sprintf(`{"bins":%s,"instances":[{"n":5,"threshold":0.9},{"n":5}]}`, table1JSON), http.StatusBadRequest},
		"bad menu":       {`{"bins":[],"instances":[{"n":5,"threshold":0.9}]}`, http.StatusBadRequest},
		"unknown solver": {fmt.Sprintf(`{"bins":%s,"solver":"nope","instances":[{"n":5,"threshold":0.9}]}`, table1JSON), http.StatusUnprocessableEntity},
	} {
		resp, raw := postJSON(t, ts.URL+"/v1/decompose/batch", tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d want %d (%s)", name, resp.StatusCode, tc.status, raw)
		}
	}
	// The member index is named so the client can fix the right one.
	_, raw := postJSON(t, ts.URL+"/v1/decompose/batch",
		fmt.Sprintf(`{"bins":%s,"instances":[{"n":5,"threshold":0.9},{"n":5}]}`, table1JSON))
	var e errorBody
	if err := json.Unmarshal(raw, &e); err != nil || !strings.Contains(e.Error.Message, "instance 1") {
		t.Fatalf("bad member error does not name the index: %s", raw)
	}
}

// TestHTTPTaskLimit: a hundred-byte body may not demand terabytes. Asking
// for more than MaxTasks is a 400 naming the limit on every route that
// builds an instance — before anything is allocated — and the next
// request is served.
func TestHTTPTaskLimit(t *testing.T) {
	_, ts := newTestServer(t)
	for _, tc := range []struct{ name, path, body string }{
		{"decompose n", "/v1/decompose", `{"bins":%s,"n":1000000000000,"threshold":0.9}`},
		{"solve job n", "/v1/jobs", `{"bins":%s,"n":1000000000000,"threshold":0.9}`},
		{"run job n", "/v1/jobs", `{"kind":"run","bins":%s,"n":1000000000000,"threshold":0.9}`},
		{"batch sum", "/v1/decompose/batch", `{"bins":%s,"instances":[{"n":1,"threshold":0.9},{"n":16777216,"threshold":0.9}]}`},
	} {
		resp, raw := postJSON(t, ts.URL+tc.path, fmt.Sprintf(tc.body, table1JSON))
		var e errorBody
		if err := json.Unmarshal(raw, &e); err != nil {
			t.Fatalf("%s: no error envelope in %s", tc.name, raw)
		}
		if resp.StatusCode != http.StatusBadRequest || e.Error.Code != "invalid_request" ||
			!strings.Contains(e.Error.Message, fmt.Sprint(MaxTasks)) {
			t.Errorf("%s: status %d, envelope %+v; want 400 invalid_request naming %d", tc.name, resp.StatusCode, e.Error, MaxTasks)
		}
	}
	// len(thresholds) over the limit is a 34 MB body, so the shared helper
	// is held to a small room instead; the room itself is admitted.
	thr := 0.9
	for _, tc := range []struct {
		sh instanceShape
		ok bool
	}{
		{instanceShape{Thresholds: []float64{0.5, 0.6}}, true},
		{instanceShape{Thresholds: []float64{0.5, 0.6, 0.7}}, false},
		{instanceShape{N: 2, Threshold: &thr}, true},
		{instanceShape{N: 3, Threshold: &thr}, false},
	} {
		if _, err := tc.sh.build(binset.Table1(), 2); (err == nil) != tc.ok {
			t.Errorf("build(%+v, room 2): err %v, want ok=%v", tc.sh, err, tc.ok)
		}
	}
	resp, raw := postJSON(t, ts.URL+"/v1/decompose", fmt.Sprintf(`{"bins":%s,"n":12,"threshold":0.9}`, table1JSON))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request after the rejections: status %d: %s", resp.StatusCode, raw)
	}
}

// TestHTTPDecomposeNDJSON: Accept: application/x-ndjson streams the plan
// one use per line after a plan-less summary line.
func TestHTTPDecomposeNDJSON(t *testing.T) {
	_, ts := newTestServer(t)
	body := fmt.Sprintf(`{"bins":%s,"n":100,"threshold":0.95,"include_plan":true}`, table1JSON)
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/decompose", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", "application/x-ndjson")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	var dr decomposeResponse
	if err := json.Unmarshal([]byte(lines[0]), &dr); err != nil {
		t.Fatalf("header line: %v (%s)", err, lines[0])
	}
	if dr.Plan != nil {
		t.Fatalf("NDJSON header line carries an inline plan")
	}
	uses := make([]core.BinUse, 0, len(lines)-1)
	for i, ln := range lines[1:] {
		var u core.BinUse
		if err := json.Unmarshal([]byte(ln), &u); err != nil {
			t.Fatalf("use line %d: %v (%s)", i, err, ln)
		}
		uses = append(uses, u)
	}
	// The line-by-line plan is the same plan the JSON form returns.
	var plain decomposeResponse
	_, plainRaw := postJSON(t, ts.URL+"/v1/decompose", body)
	if err := json.Unmarshal(plainRaw, &plain); err != nil {
		t.Fatal(err)
	}
	if len(uses) != len(plain.Plan) {
		t.Fatalf("NDJSON uses %d != JSON uses %d", len(uses), len(plain.Plan))
	}
	for i := range uses {
		if uses[i].Cardinality != plain.Plan[i].Cardinality || len(uses[i].Tasks) != len(plain.Plan[i].Tasks) {
			t.Fatalf("use %d differs: %+v vs %+v", i, uses[i], plain.Plan[i])
		}
	}
	// Without include_plan the Accept header changes nothing.
	noPlan := fmt.Sprintf(`{"bins":%s,"n":10,"threshold":0.9}`, table1JSON)
	req2, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/decompose", strings.NewReader(noPlan))
	req2.Header.Set("Content-Type", "application/json")
	req2.Header.Set("Accept", "application/x-ndjson")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if ct := resp2.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("plan-less NDJSON negotiation: content type %q", ct)
	}
}

// TestHTTPJobPlanEncodingStream: the job-status plan is streamed off the
// runs, and the splice is invisible on the wire — the bytes are what
// encoding/json produces for the materialized reply.
func TestHTTPJobPlanEncodingStream(t *testing.T) {
	_, ts := newTestServer(t)
	body := fmt.Sprintf(`{"bins":%s,"n":500,"threshold":0.95}`, table1JSON)
	resp, raw := postJSON(t, ts.URL+"/v1/jobs", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, raw)
	}
	var st JobStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		var cur JobStatus
		if getJSON(t, ts.URL+"/v1/jobs/"+st.ID, &cur); cur.State.Terminal() {
			if cur.State != JobDone {
				t.Fatalf("job ended %q: %s", cur.State, cur.Error)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job did not finish")
		}
		time.Sleep(2 * time.Millisecond)
	}
	got := assertMarshalledPlanReply[jobStatusResponse](t, httpGetRaw(t, ts.URL+"/v1/jobs/"+st.ID+"?include_plan=true"))
	if len(got.Plan) == 0 {
		t.Fatal("include_plan returned no plan")
	}
	// Without include_plan no plan is sent.
	var noPlan jobStatusResponse
	if getJSON(t, ts.URL+"/v1/jobs/"+st.ID, &noPlan); noPlan.Plan != nil {
		t.Fatalf("status without include_plan leaked a plan: %+v", noPlan.Plan)
	}
}

// assertMarshalledPlanReply pins a plan-bearing reply (wire struct T, plan
// streamed into its trailing field) to the reference encoder: decoding it
// and re-encoding the populated struct with encoding/json must reproduce
// the served bytes exactly.
func assertMarshalledPlanReply[T any](t *testing.T, raw []byte) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("decoding reply: %v\n%.200s", err, raw)
	}
	var ref bytes.Buffer
	if err := json.NewEncoder(&ref).Encode(v); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, ref.Bytes()) {
		t.Fatalf("streamed reply differs from encoding/json over the materialized plan:\n got %.200s\nwant %.200s", raw, ref.Bytes())
	}
	return v
}
