package service

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/binset"
	"repro/internal/core"
	"repro/internal/opq"
)

// TestHTTPStreamSessionLifecycle drives the incremental-ingest API end to
// end: open, append arrivals in ragged batches, flush, and read the
// merged plan back — whose cost must exactly equal a one-shot solve of
// the same arrival count (stream.Planner's guarantee, surfaced through
// the wire).
func TestHTTPStreamSessionLifecycle(t *testing.T) {
	svc, ts := newTestServer(t)

	resp, raw := postJSON(t, ts.URL+"/v1/streams", fmt.Sprintf(`{"bins":%s,"threshold":0.95}`, table1JSON))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("open status %d: %s", resp.StatusCode, raw)
	}
	var st StreamStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.State != StreamOpen || st.BlockSize <= 0 {
		t.Fatalf("open status: %+v", st)
	}

	// Append 23 tasks in ragged batches; ids arrive in order.
	const total = 23
	next := 0
	appendBatch := func(n int) StreamStatus {
		t.Helper()
		ids := make([]int, n)
		for i := range ids {
			ids[i] = next
			next++
		}
		body, _ := json.Marshal(streamAppendRequest{Tasks: ids})
		resp, raw := postJSON(t, ts.URL+"/v1/streams/"+st.ID+"/tasks", string(body))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("append status %d: %s", resp.StatusCode, raw)
		}
		var s StreamStatus
		if err := json.Unmarshal(raw, &s); err != nil {
			t.Fatal(err)
		}
		return s
	}
	for _, n := range []int{7, 1, 15} {
		s := appendBatch(n)
		if s.Pending+s.EmittedTasks != next {
			t.Fatalf("after %d arrivals: pending %d + emitted %d != %d", next, s.Pending, s.EmittedTasks, next)
		}
		if s.Pending >= s.BlockSize {
			t.Fatalf("pending %d not below block size %d", s.Pending, s.BlockSize)
		}
	}

	resp, raw = postJSON(t, ts.URL+"/v1/streams/"+st.ID+"/flush", "{}")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("flush status %d: %s", resp.StatusCode, raw)
	}
	var flushed StreamStatus
	if err := json.Unmarshal(raw, &flushed); err != nil {
		t.Fatal(err)
	}
	if flushed.State != StreamFlushed || flushed.Summary == nil || flushed.Finished.IsZero() {
		t.Fatalf("flushed status: %+v", flushed)
	}
	if flushed.Pending != 0 || flushed.EmittedTasks != total || flushed.Appends != 3 {
		t.Fatalf("flushed accounting: %+v", flushed)
	}

	// Cost parity: the incrementally built plan costs exactly a one-shot
	// solve of the same arrival sequence.
	menu := binset.Table1()
	in := core.MustHomogeneous(menu, total, 0.95)
	ref, err := (opq.Solver{}).Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if want := ref.MustCost(menu); flushed.Summary.Cost != want {
		t.Fatalf("stream cost %v != one-shot cost %v", flushed.Summary.Cost, want)
	}

	// The merged plan validates against the equivalent one-shot instance
	// (sequential ids 0..total-1), and the streamed encoding is
	// byte-identical to encoding/json over the materialized one.
	full := assertMarshalledPlanReply[streamStatusResponse](t, httpGetRaw(t, ts.URL+"/v1/streams/"+st.ID+"?include_plan=true"))
	if err := validateUses(full.Plan, in); err != nil {
		t.Fatalf("merged plan invalid: %v", err)
	}

	// Stats surface the session counts.
	ss := svc.streams.stats()
	if ss.Opened != 1 || ss.Active != 1 || ss.Flushed != 1 || ss.TasksAppended != total {
		t.Fatalf("stream stats: %+v", ss)
	}
	var stats Stats
	if getJSON(t, ts.URL+"/v1/stats", &stats); stats.Streams != ss {
		t.Fatalf("/v1/stats streams %+v != %+v", stats.Streams, ss)
	}

	// Delete, then everything 404s.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/streams/"+st.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete status %d", dresp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/v1/streams/"+st.ID, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status after delete: %d", resp.StatusCode)
	}
}

// httpGetRaw GETs a URL and returns the raw body bytes.
func httpGetRaw(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d (%s)", url, resp.StatusCode, b)
	}
	return b
}

// TestHTTPStreamErrors pins the wire contract of every stream failure
// mode: open validation, duplicate ids, mutation after flush, plan
// requests before flush, and unknown session ids.
func TestHTTPStreamErrors(t *testing.T) {
	_, ts := newTestServer(t)

	for name, tc := range map[string]struct {
		body   string
		status int
	}{
		"malformed":     {`{"bins":`, http.StatusBadRequest},
		"empty menu":    {`{"bins":[],"threshold":0.9}`, http.StatusBadRequest},
		"bad threshold": {fmt.Sprintf(`{"bins":%s,"threshold":1.0}`, table1JSON), http.StatusBadRequest},
		"bad menu":      {`{"bins":[{"cardinality":0,"confidence":0.9,"cost":0.1}],"threshold":0.9}`, http.StatusBadRequest},
	} {
		resp, raw := postJSON(t, ts.URL+"/v1/streams", tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("open %s: status %d want %d (%s)", name, resp.StatusCode, tc.status, raw)
		}
	}

	resp, raw := postJSON(t, ts.URL+"/v1/streams", fmt.Sprintf(`{"bins":%s,"threshold":0.9}`, table1JSON))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("open: %d %s", resp.StatusCode, raw)
	}
	var st StreamStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	base := ts.URL + "/v1/streams/" + st.ID

	if resp, raw := postJSON(t, base+"/tasks", `{"tasks":[0,1,2]}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("append: %d %s", resp.StatusCode, raw)
	}
	// Duplicate against the stream's history, and within one batch.
	for name, body := range map[string]string{
		"dup vs stream":   `{"tasks":[5,1]}`,
		"dup within body": `{"tasks":[9,9]}`,
	} {
		resp, raw := postJSON(t, base+"/tasks", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d want 400 (%s)", name, resp.StatusCode, raw)
		}
		var e errorBody
		if err := json.Unmarshal(raw, &e); err != nil || e.Error.Code != "invalid_request" {
			t.Errorf("%s: envelope %s", name, raw)
		}
	}
	// A rejected batch must not have mutated the session.
	var cur StreamStatus
	getJSON(t, base, &cur)
	if cur.Pending+cur.EmittedTasks != 3 || cur.Appends != 1 {
		t.Fatalf("rejected batches mutated session: %+v", cur)
	}

	// include_plan before flush is a conflict, not an empty plan.
	if resp := getJSON(t, base+"?include_plan=true", nil); resp.StatusCode != http.StatusConflict {
		t.Fatalf("include_plan before flush: %d", resp.StatusCode)
	}

	if resp, raw := postJSON(t, base+"/flush", "{}"); resp.StatusCode != http.StatusOK {
		t.Fatalf("flush: %d %s", resp.StatusCode, raw)
	}
	// Mutations after flush conflict.
	for name, url := range map[string]string{"append": base + "/tasks", "re-flush": base + "/flush"} {
		body := "{}"
		if name == "append" {
			body = `{"tasks":[10]}`
		}
		resp, raw := postJSON(t, url, body)
		if resp.StatusCode != http.StatusConflict {
			t.Errorf("%s after flush: status %d want 409 (%s)", name, resp.StatusCode, raw)
		}
		var e errorBody
		if err := json.Unmarshal(raw, &e); err != nil || e.Error.Code != "conflict" {
			t.Errorf("%s after flush: envelope %s", name, raw)
		}
	}

	// Unknown ids 404 on every verb.
	for name, f := range map[string]func() *http.Response{
		"status": func() *http.Response { return getJSON(t, ts.URL+"/v1/streams/stream-999", nil) },
		"append": func() *http.Response {
			r, _ := postJSON(t, ts.URL+"/v1/streams/stream-999/tasks", `{"tasks":[1]}`)
			return r
		},
		"flush": func() *http.Response {
			r, _ := postJSON(t, ts.URL+"/v1/streams/stream-999/flush", "{}")
			return r
		},
		"delete": func() *http.Response {
			req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/streams/stream-999", nil)
			r, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			r.Body.Close()
			return r
		},
	} {
		if resp := f(); resp.StatusCode != http.StatusNotFound {
			t.Errorf("unknown stream %s: status %d want 404", name, resp.StatusCode)
		}
	}
}

// TestHTTPStreamTaskLimit: a session holds at most maxStreamTasks
// (MaxTasks) tasks over all its appends. An append that would take it
// past the bound is a 400 naming the bound and applies nothing of its
// batch; a later append that fits is served.
func TestHTTPStreamTaskLimit(t *testing.T) {
	if maxStreamTasks != MaxTasks {
		t.Fatalf("maxStreamTasks = %d, want MaxTasks", maxStreamTasks)
	}
	maxStreamTasks = 10
	t.Cleanup(func() { maxStreamTasks = MaxTasks })
	_, ts := newTestServer(t)
	resp, raw := postJSON(t, ts.URL+"/v1/streams", fmt.Sprintf(`{"bins":%s,"threshold":0.9}`, table1JSON))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("open: %d %s", resp.StatusCode, raw)
	}
	var st StreamStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	base := ts.URL + "/v1/streams/" + st.ID
	status := func() string {
		t.Helper()
		resp, err := http.Get(base)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if resp, raw := postJSON(t, base+"/tasks", `{"tasks":[0,1,2,3,4,5]}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("append 6: %d %s", resp.StatusCode, raw)
	}
	before := status()
	for _, body := range []string{`{"tasks":[6,7,8,9,10]}`, `{"tasks":[6,7,8,9,10,11,12,13,14,15,16]}`} {
		resp, raw := postJSON(t, base+"/tasks", body)
		var e errorBody
		if err := json.Unmarshal(raw, &e); err != nil {
			t.Fatalf("no error envelope in %s", raw)
		}
		if resp.StatusCode != http.StatusBadRequest || e.Error.Code != "invalid_request" ||
			e.Error.Message != "too many tasks: a stream may hold at most 10" || e.Error.RequestID == "" {
			t.Errorf("over the bound: status %d, envelope %+v", resp.StatusCode, e.Error)
		}
		if after := status(); after != before {
			t.Fatalf("a rejected append changed the session:\n%s\n%s", before, after)
		}
	}
	resp, raw = postJSON(t, base+"/tasks", `{"tasks":[6,7,8,9]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append that fits: %d %s", resp.StatusCode, raw)
	}
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if st.Pending+st.EmittedTasks != 10 || st.Appends != 2 {
		t.Fatalf("after the fitting append: %+v", st)
	}
	if resp, raw := postJSON(t, base+"/tasks", `{"tasks":[10]}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("append to a full session: %d %s", resp.StatusCode, raw)
	}
}

// TestStreamSessionTTLExpiry: idle sessions are reaped by the janitor's
// sweep and lazily on lookup, like terminal jobs.
func TestStreamSessionTTLExpiry(t *testing.T) {
	svc := New(Config{CacheSize: 8, Workers: 1, ResultTTL: 20 * time.Millisecond,
		Slog: slog.New(slog.DiscardHandler)})
	t.Cleanup(func() { svc.Close() })
	ts := httptest.NewServer(NewHandler(svc))
	t.Cleanup(ts.Close)

	resp, raw := postJSON(t, ts.URL+"/v1/streams", fmt.Sprintf(`{"bins":%s,"threshold":0.9}`, table1JSON))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("open: %d %s", resp.StatusCode, raw)
	}
	var st StreamStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		if resp := getJSON(t, ts.URL+"/v1/streams/"+st.ID, nil); resp.StatusCode == http.StatusNotFound {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stream session never expired")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if ss := svc.streams.stats(); ss.Expired != 1 || ss.Active != 0 {
		t.Fatalf("expiry stats: %+v", ss)
	}
}
