package service

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/binset"
	"repro/internal/core"
	"repro/internal/opq"
	"repro/internal/store"
)

// sseFrame is one decoded SSE frame as read off the wire.
type sseFrame struct {
	id    uint64
	event string
	data  JobEvent
}

// readSSE consumes an event stream until it ends, returning the decoded
// frames and the number of heartbeat comments seen along the way.
func readSSE(t *testing.T, r io.Reader) ([]sseFrame, int) {
	t.Helper()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var frames []sseFrame
	var cur sseFrame
	hasData, heartbeats := false, 0
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if hasData {
				frames = append(frames, cur)
			}
			cur, hasData = sseFrame{}, false
		case strings.HasPrefix(line, ":"):
			heartbeats++
		case strings.HasPrefix(line, "id: "):
			n, err := strconv.ParseUint(strings.TrimPrefix(line, "id: "), 10, 64)
			if err != nil {
				t.Fatalf("bad SSE id line %q: %v", line, err)
			}
			cur.id = n
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &cur.data); err != nil {
				t.Fatalf("bad SSE data line %q: %v", line, err)
			}
			hasData = true
		default:
			t.Fatalf("unexpected SSE line %q", line)
		}
	}
	return frames, heartbeats
}

// subscribeSSE opens the job's event stream and reads it to completion.
func subscribeSSE(t *testing.T, url string, lastEventID uint64) ([]sseFrame, int) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatUint(lastEventID, 10))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("subscribe status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	if resp.Header.Get("X-Accel-Buffering") != "no" {
		t.Fatalf("missing X-Accel-Buffering header")
	}
	return readSSE(t, resp.Body)
}

// fastProgressFrames shrinks the progress throttle for the duration of
// the test so even tiny runs emit multiple frames.
func fastProgressFrames(t *testing.T) {
	t.Helper()
	old := progressEventInterval
	progressEventInterval = 0
	t.Cleanup(func() { progressEventInterval = old })
}

// TestSSEJobEventsAcceptance is the tentpole acceptance test: subscribe
// to a run job's stream, see at least one progress frame with monotone
// running totals, and end on the terminal frame carrying the report.
func TestSSEJobEventsAcceptance(t *testing.T) {
	fastProgressFrames(t)
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

	frames, _ := subscribeSSE(t, ts.URL+"/v1/jobs/"+st.ID+"/events", 0)
	if len(frames) < 2 {
		t.Fatalf("want >=2 frames (progress + terminal), got %d: %+v", len(frames), frames)
	}

	progress := 0
	var lastSeq uint64
	var lastBins int
	var lastSpent float64
	for i, f := range frames {
		if f.id <= lastSeq {
			t.Fatalf("frame %d: seq %d not increasing past %d", i, f.id, lastSeq)
		}
		lastSeq = f.id
		if f.data.Seq != f.id {
			t.Fatalf("frame %d: payload seq %d != SSE id %d", i, f.data.Seq, f.id)
		}
		if f.data.JobID != st.ID {
			t.Fatalf("frame %d: job id %q", i, f.data.JobID)
		}
		if terminal := f.data.State.Terminal(); terminal != (i == len(frames)-1) {
			t.Fatalf("frame %d/%d: terminal=%v", i, len(frames), terminal)
		}
		if !f.data.State.Terminal() {
			if f.event != "progress" {
				t.Fatalf("frame %d: event %q want progress", i, f.event)
			}
			if f.data.BinsIssued < lastBins || f.data.Spent < lastSpent {
				t.Fatalf("frame %d: totals regressed (bins %d<%d or spent %v<%v)",
					i, f.data.BinsIssued, lastBins, f.data.Spent, lastSpent)
			}
			lastBins, lastSpent = f.data.BinsIssued, f.data.Spent
			if f.data.State == JobRunning && f.data.BinsIssued > 0 {
				progress++
			}
		}
	}
	if progress < 1 {
		t.Fatalf("no progress frames with bins issued: %+v", frames)
	}

	final := frames[len(frames)-1]
	if final.event != string(JobDone) || final.data.State != JobDone {
		t.Fatalf("terminal frame: event %q state %q", final.event, final.data.State)
	}
	if final.data.Report == nil || final.data.Summary == nil {
		t.Fatalf("terminal frame missing report/summary: %+v", final.data)
	}
	if final.data.BinsIssued != final.data.Report.BinsIssued ||
		final.data.Spent != final.data.Report.Spent ||
		final.data.DeliveredMass != final.data.Report.DeliveredMass {
		t.Fatalf("terminal totals disagree with report: %+v vs %+v", final.data, *final.data.Report)
	}
	if final.data.BinsIssued < lastBins || final.data.Spent < lastSpent {
		t.Fatalf("terminal totals regressed below last progress frame")
	}

	// Reconnect with Last-Event-ID mid-stream: only newer frames replay,
	// ending on the same terminal frame.
	cursor := frames[0].id
	tail, _ := subscribeSSE(t, ts.URL+"/v1/jobs/"+st.ID+"/events", cursor)
	if len(tail) != len(frames)-1 {
		t.Fatalf("resume from %d: got %d frames want %d", cursor, len(tail), len(frames)-1)
	}
	for i, f := range tail {
		if f.id != frames[i+1].id {
			t.Fatalf("resume frame %d: seq %d want %d", i, f.id, frames[i+1].id)
		}
	}
}

// TestSSEResumeAfterRestart: a subscriber whose feed was lost to a
// process restart still gets the terminal frame, synthesized with its
// report from the stored record — from cursor 0, and from a cursor of
// the first process's feed, past the new feed's newest frame.
func TestSSEResumeAfterRestart(t *testing.T) {
	fastProgressFrames(t)
	mem := store.NewMem()
	serve := func() (*Service, *httptest.Server) {
		svc := New(Config{CacheSize: 8, Workers: 2, Store: mem, Slog: slog.New(slog.DiscardHandler)})
		ts := httptest.NewServer(NewHandler(svc))
		t.Cleanup(func() { ts.Close(); svc.Close() })
		return svc, ts
	}
	first, ts := serve()
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
	frames, _ := subscribeSSE(t, ts.URL+"/v1/jobs/"+st.ID+"/events", 0)
	final := frames[len(frames)-1]
	if final.data.State != JobDone || final.id < 3 {
		t.Fatalf("first feed ends on seq %d state %q; want done past seq 2", final.id, final.data.State)
	}
	first.Close() // waits for the terminal record to reach the store

	_, ts = serve()
	for _, cursor := range []uint64{final.id - 1, 0} {
		resumed, _ := subscribeSSE(t, ts.URL+"/v1/jobs/"+st.ID+"/events", cursor)
		if len(resumed) != 1 || resumed[0].id != 1 || resumed[0].data.State != JobDone {
			t.Fatalf("resume from cursor %d after restart: %+v", cursor, resumed)
		}
		if ev := resumed[0].data; ev.JobID != st.ID || ev.Report == nil || ev.BinsIssued != final.data.BinsIssued {
			t.Fatalf("synthesized terminal lost report detail: %+v", ev)
		}
	}
}

// TestJobReadsRaceExpiry: status-with-plan and event-stream reads of
// done jobs expiring under a 1 ms result TTL answer 200 or 404, never
// 500, and every event stream ends. The jobs finish together while the
// readers poll, so reads land inside the short done-but-unexpired window.
// Run under -race (CI does).
func TestJobReadsRaceExpiry(t *testing.T) {
	const jobs, readers = 16, 4
	svc := New(Config{CacheSize: 8, Workers: 2, MaxJobs: jobs, ResultTTL: time.Millisecond,
		Slog: slog.New(slog.DiscardHandler)})
	ts := httptest.NewServer(NewHandler(svc))
	t.Cleanup(func() { ts.Close(); svc.Close() })
	client := ts.Client()
	client.Timeout = 10 * time.Second // an event stream that never ends fails here
	release := make(chan struct{})
	if err := svc.RegisterSolver("gated", core.SolverFunc{
		SolverName: "gated",
		Fn: func(in *core.Instance) (*core.Plan, error) {
			<-release
			return (opq.Solver{}).Solve(in)
		},
	}); err != nil {
		t.Fatal(err)
	}
	in := core.MustHomogeneous(binset.Table1(), 40, 0.9)

	var wg, polling sync.WaitGroup
	for range jobs {
		id, err := svc.Jobs().Submit(JobRequest{Instance: in, Solver: "gated"})
		if err != nil {
			t.Fatal(err)
		}
		for i := range 2 * readers {
			path := [...]string{"?include_plan=true", "/events"}[i%2]
			wg.Add(1)
			polling.Add(1)
			go func() {
				defer wg.Done()
				started := sync.OnceFunc(polling.Done)
				defer started()
				for { // read until the job expires
					resp, err := client.Get(ts.URL + "/v1/jobs/" + id + path)
					if err != nil {
						t.Error(err)
						return
					}
					started()
					_, err = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if err != nil {
						t.Errorf("%s%s: body: %v", id, path, err)
						return
					}
					switch resp.StatusCode {
					case http.StatusOK:
					case http.StatusNotFound:
						return
					default:
						t.Errorf("%s%s: status %d", id, path, resp.StatusCode)
						return
					}
				}
			}()
		}
	}
	polling.Wait() // every reader has had its first answer
	close(release)
	wg.Wait()
}

// TestSSEUnknownJobAndMultiSubscriber covers the 404 path and N
// concurrent subscribers on one job (run under -race in CI): every
// subscriber sees the same single terminal frame.
func TestSSEUnknownJobAndMultiSubscriber(t *testing.T) {
	fastProgressFrames(t)
	_, ts := newTestServer(t)

	resp, raw := func() (*http.Response, []byte) {
		r, err := http.Get(ts.URL + "/v1/jobs/nope/events")
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		b, _ := io.ReadAll(r.Body)
		return r, b
	}()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: status %d (%s)", resp.StatusCode, raw)
	}
	var e errorBody
	if err := json.Unmarshal(raw, &e); err != nil || e.Error.Code != "not_found" {
		t.Fatalf("unknown job envelope: %s", raw)
	}

	body := fmt.Sprintf(`{"kind":"run","bins":%s,"n":60,"threshold":0.9,"run":{"seed":3}}`, table1JSON)
	sub, raw := postJSON(t, ts.URL+"/v1/jobs", body)
	if sub.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", sub.StatusCode, raw)
	}
	var st JobStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}

	const subscribers = 8
	var wg sync.WaitGroup
	results := make([][]sseFrame, subscribers)
	for i := range subscribers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], _ = subscribeSSE(t, ts.URL+"/v1/jobs/"+st.ID+"/events", 0)
		}()
	}
	wg.Wait()
	for i, frames := range results {
		if len(frames) == 0 {
			t.Fatalf("subscriber %d: no frames", i)
		}
		terminals := 0
		for _, f := range frames {
			if f.data.State.Terminal() {
				terminals++
			}
		}
		if terminals != 1 || !frames[len(frames)-1].data.State.Terminal() {
			t.Fatalf("subscriber %d: %d terminal frames, last state %q",
				i, terminals, frames[len(frames)-1].data.State)
		}
		if got, want := frames[len(frames)-1].id, results[0][len(results[0])-1].id; got != want {
			t.Fatalf("subscriber %d: terminal seq %d != %d", i, got, want)
		}
	}
}

// TestSSEPendingCancelAndShutdown: canceling a still-pending job delivers
// a single canceled frame, and service shutdown releases subscribers that
// are parked on a job that will never finish.
func TestSSEPendingCancelAndShutdown(t *testing.T) {
	svc := New(Config{CacheSize: 8, Workers: 1, MaxJobs: 1,
		SSEHeartbeat: 5 * time.Millisecond, Slog: slog.New(slog.DiscardHandler)})
	ts := httptest.NewServer(NewHandler(svc))
	t.Cleanup(ts.Close)
	block := make(chan struct{})
	defer func() {
		select {
		case <-block:
		default:
			close(block)
		}
	}()
	if err := svc.RegisterSolver("slow", core.SolverFunc{
		SolverName: "slow",
		Fn: func(in *core.Instance) (*core.Plan, error) {
			<-block
			return &core.Plan{}, nil
		},
	}); err != nil {
		t.Fatal(err)
	}

	submit := func() JobStatus {
		body := fmt.Sprintf(`{"bins":%s,"n":5,"threshold":0.9,"solver":"slow"}`, table1JSON)
		resp, raw := postJSON(t, ts.URL+"/v1/jobs", body)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit status %d: %s", resp.StatusCode, raw)
		}
		var st JobStatus
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	running := submit() // occupies the single slot
	waitRunning(t, svc, running.ID)
	pending := submit() // parked behind it

	type result struct {
		frames     []sseFrame
		heartbeats int
	}
	done := make(chan result, 1)
	go func() {
		frames, hb := subscribeSSE(t, ts.URL+"/v1/jobs/"+pending.ID+"/events", 0)
		done <- result{frames, hb}
	}()
	time.Sleep(30 * time.Millisecond) // let the subscriber park and heartbeat
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+pending.ID, nil)
	if resp, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	got := <-done
	if len(got.frames) != 1 || got.frames[0].data.State != JobCanceled {
		t.Fatalf("pending cancel frames: %+v", got.frames)
	}
	if got.frames[0].event != string(JobCanceled) {
		t.Fatalf("pending cancel event name %q", got.frames[0].event)
	}
	if got.heartbeats == 0 {
		t.Fatalf("no heartbeats while parked (interval 5ms, waited 30ms)")
	}

	// A subscriber on the never-finishing running job is released by
	// service shutdown without a terminal frame.
	shutdownDone := make(chan []sseFrame, 1)
	go func() {
		frames, _ := subscribeSSE(t, ts.URL+"/v1/jobs/"+running.ID+"/events", 0)
		shutdownDone <- frames
	}()
	time.Sleep(20 * time.Millisecond)
	svc.Close()
	frames := <-shutdownDone
	for _, f := range frames {
		if f.data.State.Terminal() {
			t.Fatalf("terminal frame from a job that never finished: %+v", f)
		}
	}
	close(block)
}

// waitGoroutines polls until the process is back to at most want
// goroutines, failing with a full dump after two seconds.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines, want at most %d:\n%s", runtime.NumGoroutine(), want, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCloseWithSubscriberLeaksNoGoroutine: Service.Close with one SSE
// subscriber still parked on a job that has not finished releases the
// subscriber's handler, and once the listener is gone and the job's
// solver returns, nothing the service started is left running.
func TestCloseWithSubscriberLeaksNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	svc := New(Config{CacheSize: 8, Workers: 1, ResultTTL: time.Hour,
		SSEHeartbeat: 5 * time.Millisecond, Slog: slog.New(slog.DiscardHandler)})
	ts := httptest.NewServer(NewHandler(svc))
	block := make(chan struct{})
	if err := svc.RegisterSolver("slow", core.SolverFunc{
		SolverName: "slow",
		Fn: func(in *core.Instance) (*core.Plan, error) {
			<-block
			return &core.Plan{}, nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	in, err := core.NewHomogeneous(binset.Table1(), 5, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	id, err := svc.Jobs().Submit(JobRequest{Instance: in, Solver: "slow"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// The first heartbeat comment proves the handler is parked in its
	// select, subscribed, before Close runs.
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("stream ended before a heartbeat: %v", err)
		}
		if strings.HasPrefix(line, ":") {
			break
		}
	}
	svc.Close()
	if _, err := io.Copy(io.Discard, br); err != nil { // EOF: the handler returned
		t.Fatalf("stream did not end cleanly after Close: %v", err)
	}
	close(block)
	ts.Close()
	waitGoroutines(t, before)
}
