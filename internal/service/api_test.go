package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
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
// discriminator and the retired stream payload are rejected like any
// unknown field, the retired "stream" kind like any unknown kind, and a
// run payload on a solve job is an error rather than silently dropped.
func TestHTTPRunJobKindAliasesAndErrors(t *testing.T) {
	_, ts := newTestServer(t)
	for name, body := range map[string]string{
		`"type" is rejected`:   fmt.Sprintf(`{"type":"run","bins":%s,"n":10,"threshold":0.9}`, table1JSON),
		"unknown kind":         fmt.Sprintf(`{"kind":"warp","bins":%s,"n":10,"threshold":0.9}`, table1JSON),
		"retired stream kind":  `{"kind":"stream"}`,
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

// TestHTTPBatchInstanceLimit: a batch of more than MaxBatchInstances
// members is a 400 naming the limit before any member is solved, however
// few tasks they carry; a batch of exactly MaxBatchInstances is served.
func TestHTTPBatchInstanceLimit(t *testing.T) {
	svc, ts := newTestServer(t)
	var solves atomic.Int64
	if err := svc.RegisterSolver("counting", core.SolverFunc{
		SolverName: "counting",
		Fn: func(in *core.Instance) (*core.Plan, error) {
			solves.Add(1)
			return (opq.Solver{}).Solve(in)
		},
	}); err != nil {
		t.Fatal(err)
	}
	batch := func(members int) string {
		return fmt.Sprintf(`{"bins":%s,"solver":"counting","instances":[%s]}`, table1JSON,
			strings.TrimSuffix(strings.Repeat(`{"n":1,"threshold":0.9},`, members), ","))
	}
	resp, raw := postJSON(t, ts.URL+"/v1/decompose/batch", batch(MaxBatchInstances+1))
	var e errorBody
	if err := json.Unmarshal(raw, &e); err != nil {
		t.Fatalf("no error envelope in %.200s", raw)
	}
	if resp.StatusCode != http.StatusBadRequest || e.Error.Code != "invalid_request" ||
		!strings.Contains(e.Error.Message, fmt.Sprint(MaxBatchInstances)) {
		t.Errorf("status %d, envelope %+v; want 400 invalid_request naming %d", resp.StatusCode, e.Error, MaxBatchInstances)
	}
	if n := solves.Load(); n != 0 {
		t.Errorf("a rejected batch solved %d members", n)
	}
	if resp, raw := postJSON(t, ts.URL+"/v1/decompose/batch", batch(MaxBatchInstances)); resp.StatusCode != http.StatusOK {
		t.Fatalf("a batch of %d members: status %d (%.200s)", MaxBatchInstances, resp.StatusCode, raw)
	}
	if n := solves.Load(); n != MaxBatchInstances {
		t.Errorf("a batch of %d members solved %d", MaxBatchInstances, n)
	}
}

// TestBatchMemberBoundBeforeDecode: a batch body past MaxBatchInstances
// members is refused before its members are decoded, on both decode paths:
// a body small enough for the body reader (5,000 members) and one the
// plain decode streams (100,000 members, where decoding them all took
// 31 MB). Each costs the handler a fixed few KiB, not bytes per member.
func TestBatchMemberBoundBeforeDecode(t *testing.T) {
	svc := New(Config{CacheSize: 8, Workers: 2, Slog: slog.New(slog.DiscardHandler)})
	defer svc.Close()
	h := NewHandler(svc)
	const budget = 64 << 10
	for _, members := range []int{5_000, 100_000} {
		body := fmt.Sprintf(`{"bins":%s,"instances":[%s]}`, table1JSON,
			strings.TrimSuffix(strings.Repeat(`{},`, members), ","))
		if members == 5_000 && len(body) > maxInternedBody {
			t.Fatalf("%d-member body is %d bytes: too long for the body reader", members, len(body))
		}
		const runs = 4
		reqs, recs := make([]*http.Request, runs), make([]*httptest.ResponseRecorder, runs)
		for i := range reqs {
			reqs[i] = httptest.NewRequest("POST", "/v1/decompose/batch", strings.NewReader(body))
			recs[i] = httptest.NewRecorder()
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := range reqs {
			h.ServeHTTP(recs[i], reqs[i])
		}
		runtime.ReadMemStats(&after)
		perOp := (after.TotalAlloc - before.TotalAlloc) / runs
		t.Logf("%d members (%d-byte body): %d B allocated per rejected request", members, len(body), perOp)
		if recs[0].Code != http.StatusBadRequest || !strings.Contains(recs[0].Body.String(), errTooManyInstances.Error()) {
			t.Fatalf("%d members: status %d, %s", members, recs[0].Code, recs[0].Body)
		}
		if perOp > budget {
			t.Errorf("%d members: %d B allocated per rejected request, budget %d", members, perOp, budget)
		}
	}
}

// TestMemberCounterMatchesDecode: the member count the plain decode
// enforces is the length encoding/json gives the instances field — for
// the key spelled with escapes or in another case, for members whose
// strings hold brackets, commas and escaped quotes, and with a string
// value that spells an instances array — so 1,024 members decode and
// 1,025 are refused.
func TestMemberCounterMatchesDecode(t *testing.T) {
	members := func(n int, member string) string {
		return strings.TrimSuffix(strings.Repeat(member+",", n), ",")
	}
	fake := `{\"n\":1},`
	for _, tc := range []struct{ name, body string }{
		{"plain", `{"instances":[%s]}`},
		{"escaped key", `{"instanc\u0065s":[%s]}`},
		{"folded key", `{"INSTANCES":[%s]}`},
		{"long s", `{"in\u017ftances":[%s]}`},
		{"after bins", `{"bins":[{"cardinality":1,"confidence":0.9,"cost":0.1}],"solver":"x],[{","instances":[%s]}`},
		{"string spells members", `{"solver":"\"instances\":[` + strings.Repeat(fake, 2000) + `]","instances":[%s]}`},
	} {
		for _, member := range []string{`{}`, `{"thresholds":[0.5,0.6]}`, ` { "n" : 2 , "threshold" : 0.9 } `} {
			for _, n := range []int{MaxBatchInstances, MaxBatchInstances + 1} {
				body := fmt.Sprintf(tc.body, members(n, member))
				var req batchDecomposeRequest
				rec := httptest.NewRecorder()
				ok := decodeFrom(rec, strings.NewReader(body), &req)
				switch {
				case n <= MaxBatchInstances && (!ok || len(req.Instances) != n):
					t.Errorf("%s, %d × %s: ok %v, %d members, %s", tc.name, n, member, ok, len(req.Instances), rec.Body)
				case n > MaxBatchInstances && (ok || !strings.Contains(rec.Body.String(), errTooManyInstances.Error())):
					t.Errorf("%s, %d × %s: ok %v, %s", tc.name, n, member, ok, rec.Body)
				}
			}
		}
	}
}

// TestSolverTaskLimit: greedy and baseline take at most their own task
// bound. One more task is a 400 naming the bound, before anything is
// solved, on a decompose, on a batch member and on a job submission (as
// Submit's error, too, so no job is registered); and each solver still
// serves below its bound.
func TestSolverTaskLimit(t *testing.T) {
	svc, ts := newTestServer(t)
	for _, tc := range []struct {
		solver string
		limit  int
	}{{"greedy", maxGreedyTasks}, {"baseline", maxBaselineTasks}} {
		want := fmt.Sprintf("too many tasks: solver %q may take at most %d", tc.solver, tc.limit)
		for _, call := range []struct{ path, body, prefix string }{
			{"/v1/decompose", `{"bins":%s,"n":%d,"threshold":0.9,"solver":%q}`, ""},
			{"/v1/decompose/batch", `{"bins":%s,"instances":[{"n":%d,"threshold":0.9}],"solver":%q}`, "instance 0: "},
			{"/v1/jobs", `{"bins":%s,"n":%d,"threshold":0.9,"solver":%q}`, ""},
		} {
			resp, raw := postJSON(t, ts.URL+call.path, fmt.Sprintf(call.body, table1JSON, tc.limit+1, tc.solver))
			var e errorBody
			if err := json.Unmarshal(raw, &e); err != nil {
				t.Fatalf("%s %s: no error envelope in %s", tc.solver, call.path, raw)
			}
			if resp.StatusCode != http.StatusBadRequest || e.Error.Code != "invalid_request" || e.Error.Message != call.prefix+want {
				t.Errorf("%s %s: status %d, envelope %+v; want 400 invalid_request %q", tc.solver, call.path, resp.StatusCode, e.Error, call.prefix+want)
			}
		}
		in, err := core.NewHomogeneous(binset.Table1(), tc.limit+1, 0.9)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := svc.Jobs().Submit(JobRequest{Instance: in, Solver: tc.solver}); err == nil || err.Error() != want {
			t.Errorf("%s job past the bound: Submit returned %v; want %q", tc.solver, err, want)
		}
		rj := &RunJob{Instance: in}
		if _, err := svc.Jobs().Submit(JobRequest{Run: rj, Solver: tc.solver}); err == nil || err.Error() != want {
			t.Errorf("%s run job past the bound: Submit returned %v; want %q", tc.solver, err, want)
		}
		resp, raw := postJSON(t, ts.URL+"/v1/decompose", fmt.Sprintf(`{"bins":%s,"n":1000,"threshold":0.9,"solver":%q}`, table1JSON, tc.solver))
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s below its bound: status %d: %s", tc.solver, resp.StatusCode, raw)
		}
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

// TestTrailingDataRejected: a request body is one JSON value. Anything but
// whitespace after it — garbage, a second value, a stray closing brace —
// is a 400 invalid_request on every route that decodes a body, while
// trailing whitespace (json.Encoder ends its output with a newline) stays
// legal.
func TestTrailingDataRejected(t *testing.T) {
	svc := New(Config{CacheSize: 8, Workers: 2, Slog: slog.New(slog.DiscardHandler)})
	defer svc.Close()
	h := NewHandler(svc)
	routes := []struct{ path, body string }{
		{"/v1/decompose", fmt.Sprintf(`{"bins":%s,"n":12,"threshold":0.9}`, table1JSON)},
		{"/v1/decompose/batch", fmt.Sprintf(`{"bins":%s,"instances":[{"n":12,"threshold":0.9}]}`, table1JSON)},
		{"/v1/jobs", fmt.Sprintf(`{"bins":%s,"n":12,"threshold":0.9}`, table1JSON)},
		{"/v1/streams", fmt.Sprintf(`{"bins":%s,"threshold":0.9}`, table1JSON)},
	}
	for _, rt := range routes {
		for _, tail := range []string{"garbage", `{"n":7}`, "}", " []", "\n1"} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("POST", rt.path, strings.NewReader(rt.body+tail)))
			if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), `"code":"invalid_request"`) {
				t.Errorf("POST %s with %q after the body: status %d, %s; want 400 invalid_request", rt.path, tail, rec.Code, rec.Body)
			}
		}
		for _, tail := range []string{"", "\n", " \r\n\t "} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("POST", rt.path, strings.NewReader(rt.body+tail)))
			if rec.Code/100 != 2 {
				t.Errorf("POST %s with %q after the body: status %d, %s; want success", rt.path, tail, rec.Code, rec.Body)
			}
		}
	}
}

// TestDecodeTypeErrorText pins the 400 message each decoding route gives
// for a type error inside bins: encoding/json's own text, whose struct
// path names the route's request type.
func TestDecodeTypeErrorText(t *testing.T) {
	_, ts := newTestServer(t)
	const bins = `[{"cardinality":1,"confidence":0.9,"cost":"0.1"}]`
	const want = "decoding request: json: cannot unmarshal string into Go struct field TaskBin.%s of type float64"
	for _, tc := range []struct{ path, body, field string }{
		{"/v1/decompose", `{"bins":` + bins + `,"n":5,"threshold":0.9}`, "instanceRequest.bins.cost"},
		{"/v1/decompose/batch", `{"bins":` + bins + `,"instances":[{"n":5,"threshold":0.9}]}`, "bins.cost"},
		{"/v1/streams", `{"bins":` + bins + `,"threshold":0.9}`, "bins.cost"},
		{"/v1/jobs", `{"bins":` + bins + `,"n":5,"threshold":0.9}`, "decomposeRequest.instanceRequest.bins.cost"},
	} {
		resp, raw := postJSON(t, ts.URL+tc.path, tc.body)
		var e errorBody
		if err := json.Unmarshal(raw, &e); err != nil {
			t.Fatalf("POST %s: no error envelope in %s", tc.path, raw)
		}
		if resp.StatusCode != http.StatusBadRequest || e.Error.Message != fmt.Sprintf(want, tc.field) {
			t.Errorf("POST %s: status %d, message %q; want 400, %q", tc.path, resp.StatusCode, e.Error.Message, fmt.Sprintf(want, tc.field))
		}
	}
	// A type error in n ahead of a bad bin: encoding/json reports the
	// first type error it meets, so n's wins.
	const nFirst = "decoding request: json: cannot unmarshal string into Go struct field decomposeRequest.instanceRequest.instanceShape.n of type int"
	resp, raw := postJSON(t, ts.URL+"/v1/decompose", `{"n":"5","bins":`+bins+`,"threshold":0.9}`)
	var e errorBody
	if err := json.Unmarshal(raw, &e); err != nil || resp.StatusCode != http.StatusBadRequest || e.Error.Message != nFirst {
		t.Errorf("POST /v1/decompose with n and a bin mistyped: status %d, %s; want 400, %q", resp.StatusCode, raw, nFirst)
	}
}
