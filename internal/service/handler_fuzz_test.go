package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
)

// edgeRoutes are the routes FuzzHandlerEdge posts to; the last is the
// append route of a session opened for the call.
var edgeRoutes = []string{"/v1/decompose", "/v1/decompose/batch", "/v1/jobs", "/v1/streams", "/v1/streams/{id}/tasks"}

// FuzzHandlerEdge sends fuzzed bodies through NewHandler, in memory, to
// every route that decodes one. Its oracles:
//
//   - no status is 500 or above: hostile input fails closed with a 4xx;
//   - every 4xx carries the error envelope with a code, a message and
//     the request id the middleware minted;
//   - every 2xx decompose reply that carries a plan passes Plan.Validate
//     on the instance the body describes, and its summary cost equals the
//     plan's cost; a batch reply has a result per instance.
//
// The instance is rebuilt from the body with the handler's own request
// types, so field names that match case-insensitively (FORMATS.md:
// "include_plAn") mean to the oracle what they mean to the handler.
//
// Bodies asking for more than edgeMaxTasks tasks are skipped: ROADMAP
// 7(d) has not yet bounded a reply by anything but MaxTasks, and one
// decompose of 2^24 tasks with its plan is ~500 MB of JSON, so mutating
// n's digits would spend each worker's time and memory on a few legal
// inputs.
// Accepted jobs are cancelled at once, so no execution outlives its call.
func FuzzHandlerEdge(f *testing.F) {
	for _, seed := range []struct {
		route int
		body  string
	}{
		{0, fmt.Sprintf(`{"bins":%s,"n":12,"threshold":0.9,"include_plan":true}`, table1JSON)},
		{0, fmt.Sprintf(`{"bins":%s,"thresholds":[0.9,0.95,0.6,0.99],"include_plan":true,"solver":"opq-extended"}`, table1JSON)},
		{0, fmt.Sprintf(`{"bins":%s,"n":4,"threshold":0.95}`, table1JSON)},
		{1, fmt.Sprintf(`{"bins":%s,"instances":[{"n":12,"threshold":0.9},{"thresholds":[0.5,0.86]}]}`, table1JSON)},
		{1, fmt.Sprintf(`{"bins":%s,"instances":[%s]}`, table1JSON,
			strings.TrimSuffix(strings.Repeat(`{"n":0,"threshold":0.9},`, MaxBatchInstances+1), ","))},
		{2, fmt.Sprintf(`{"kind":"solve","bins":%s,"n":12,"threshold":0.9}`, table1JSON)},
		{2, fmt.Sprintf(`{"kind":"run","bins":%s,"n":24,"threshold":0.9,"run":{"platform":"jelly","seed":7,"positive_rate":0.5}}`, table1JSON)},
		{3, fmt.Sprintf(`{"bins":%s,"threshold":0.9}`, table1JSON)},
		{4, `{"tasks":[0,1,2,3,4,5,6]}`},
	} {
		f.Add(uint8(seed.route), []byte(seed.body))
	}
	svc := New(Config{CacheSize: 8, Workers: 2, Slog: slog.New(slog.DiscardHandler)})
	f.Cleanup(func() { svc.Close() })
	h := NewHandler(svc)
	serve := func(method, path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		return rec
	}

	f.Fuzz(func(t *testing.T, route uint8, body []byte) {
		path := edgeRoutes[int(route)%len(edgeRoutes)]
		if edgeTasks(path, body) > edgeMaxTasks {
			t.Skip("asks for more tasks than the fuzzer spends time on")
		}
		if path == "/v1/streams/{id}/tasks" {
			open := serve("POST", "/v1/streams", fmt.Appendf(nil, `{"bins":%s,"threshold":0.9}`, table1JSON))
			var st StreamStatus
			if err := json.Unmarshal(open.Body.Bytes(), &st); err != nil {
				t.Fatalf("open a session: %d %s", open.Code, open.Body)
			}
			path = "/v1/streams/" + st.ID + "/tasks"
			defer serve("DELETE", "/v1/streams/"+st.ID, nil)
		}
		rec := serve("POST", path, body)
		switch {
		case rec.Code >= 500:
			t.Fatalf("POST %s %q: status %d: %s", path, body, rec.Code, rec.Body)
		case rec.Code >= 400:
			var e errorBody
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error.Code == "" || e.Error.Message == "" || e.Error.RequestID == "" {
				t.Fatalf("POST %s %q: status %d without the error envelope: %s", path, body, rec.Code, rec.Body)
			}
		case path == "/v1/decompose":
			checkDecomposeReply(t, body, rec.Body.Bytes())
		case path == "/v1/decompose/batch":
			var req batchDecomposeRequest
			var resp batchDecomposeResponse
			if json.Unmarshal(body, &req) != nil || json.Unmarshal(rec.Body.Bytes(), &resp) != nil ||
				resp.Instances != len(req.Instances) || len(resp.Results) != len(req.Instances) {
				t.Fatalf("POST %s %q: batch reply does not answer each instance: %s", path, body, rec.Body)
			}
		case path == "/v1/jobs":
			var st JobStatus
			if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil || st.ID == "" {
				t.Fatalf("POST %s %q: status %d without a job id: %s", path, body, rec.Code, rec.Body)
			}
			serve("DELETE", "/v1/jobs/"+st.ID, nil)
		}
	})
}

// edgeMaxTasks bounds the tasks one FuzzHandlerEdge body may ask for.
const edgeMaxTasks = 1 << 16

// edgeTasks is how many tasks body asks path for, read with the route's
// own request type; a body that does not decode asks for none.
func edgeTasks(path string, body []byte) int {
	switch path {
	case "/v1/decompose", "/v1/jobs":
		var req jobRequest
		if json.Unmarshal(body, &req) != nil {
			return 0
		}
		return max(req.N, len(req.Thresholds))
	case "/v1/decompose/batch":
		var req batchDecomposeRequest
		if json.Unmarshal(body, &req) != nil {
			return 0
		}
		total := 0
		for _, sh := range req.Instances {
			total += max(sh.N, len(sh.Thresholds))
		}
		return total
	}
	return 0
}

// checkDecomposeReply holds a 2xx POST /v1/decompose reply to the
// instance its body describes.
func checkDecomposeReply(t *testing.T, body, reply []byte) {
	t.Helper()
	var req decomposeRequest
	if err := json.Unmarshal(body, &req); err != nil {
		t.Fatalf("%q was served but does not decode: %v", body, err)
	}
	bins, err := core.NewBinSet(req.Bins)
	if err != nil {
		t.Fatalf("%q was served but its menu does not validate: %v", body, err)
	}
	in, err := req.build(bins, MaxTasks)
	if err != nil {
		t.Fatalf("%q was served but describes no instance: %v", body, err)
	}
	var resp decomposeResponse
	if err := json.Unmarshal(reply, &resp); err != nil {
		t.Fatalf("%q: unparsable reply: %v\n%s", body, err, reply)
	}
	if resp.N != in.N() {
		t.Fatalf("%q: reply n = %d, instance has %d", body, resp.N, in.N())
	}
	if !req.IncludePlan {
		return
	}
	plan, err := core.PlanFromUses(resp.Plan)
	if err != nil {
		t.Fatalf("%q: plan does not build: %v", body, err)
	}
	if err := plan.Validate(in); err != nil {
		t.Fatalf("%q: served plan is invalid: %v", body, err)
	}
	cost, err := plan.Cost(in.Bins())
	if err != nil {
		t.Fatal(err)
	}
	if cost != resp.Summary.Cost {
		t.Fatalf("%q: summary cost %v, plan cost %v", body, resp.Summary.Cost, cost)
	}
}
