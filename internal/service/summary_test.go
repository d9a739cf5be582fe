package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/binset"
	"repro/internal/core"
	"repro/internal/hetero"
	"repro/internal/stream"
)

// TestPlanSummaryParity holds Plan.Summarize — the one summary the service
// serves — to summaryByUses, byte for byte on the wire: cached-solver plans
// as DecomposeSummarized serves them, stream-session merges where one
// cardinality recurs across runs, PlanFromUses plans, OPQ-Extended plans
// and the empty plan, which must still serve "uses":[].
func TestPlanSummaryParity(t *testing.T) {
	table1, jelly := binset.Table1(), binset.MustJelly(20)
	svc := New(Config{CacheSize: 8, Workers: 2, Slog: slog.New(slog.DiscardHandler)})
	defer svc.Close()

	type tc struct {
		name string
		plan *core.Plan
		bins core.BinSet
	}
	var cases []tc
	for _, n := range []int{1, 4, 23, 10_000, 300_000} {
		in := core.MustHomogeneous(jelly, n, 0.9)
		plan, served, err := svc.DecomposeSummarized(context.Background(), svc.DefaultSolver(), in)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := mustJSON(t, served), mustJSON(t, summaryByUses(t, plan, jelly)); got != want {
			t.Errorf("DecomposeSummarized n=%d serves %s, want %s", n, got, want)
		}
		cases = append(cases, tc{fmt.Sprintf("cached n=%d", n), plan, jelly})
	}

	sp, err := stream.NewPlanner(table1, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	var parts []*core.Plan
	next := 0
	for _, batch := range []int{7, 1, 15, 9, 30} {
		ids := make([]int, batch)
		for i := range ids {
			ids[i], next = next, next+1
		}
		p, err := sp.Add(ids...)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, p)
	}
	tail, err := sp.Flush()
	if err != nil {
		t.Fatal(err)
	}
	merged := core.MergePlans(append(parts, tail)...)
	seen, recurs := map[int]bool{}, false
	for _, r := range merged.Runs {
		for _, p := range r.Comb.Parts {
			recurs = recurs || seen[p.Cardinality]
			seen[p.Cardinality] = true
		}
	}
	if !recurs {
		t.Fatal("the merged stream plan names no cardinality twice; the case tests nothing")
	}
	cases = append(cases, tc{"stream merge", merged, table1})

	fromUses, err := core.PlanFromUses([]core.BinUse{
		{Cardinality: 3, Tasks: []int{0, 1, 2}}, {Cardinality: 3, Tasks: []int{3, 4, 5}},
		{Cardinality: 1, Tasks: []int{6}}, {Cardinality: 2, Tasks: []int{7}},
		{Cardinality: 3, Tasks: []int{6, 7}}, {Cardinality: 1, Tasks: []int{0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, tc{"PlanFromUses", fromUses, table1})

	ths := make([]float64, 500)
	for i := range ths {
		ths[i] = 0.85 + 0.03*float64(i%4)
	}
	ext, err := hetero.Solve(core.MustHeterogeneous(jelly, ths))
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, tc{"OPQ-Extended", ext, jelly})
	cases = append(cases, tc{"empty", &core.Plan{}, table1}, tc{"empty runs", &core.Plan{Runs: []core.BlockRun{}}, table1})

	for _, c := range cases {
		got, err := c.plan.Summarize(c.bins)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if g, w := mustJSON(t, got), mustJSON(t, summaryByUses(t, c.plan, c.bins)); g != w {
			t.Errorf("%s: summary %s, want %s", c.name, g, w)
		}
		if c.plan.NumUses() == 0 && !strings.Contains(mustJSON(t, got), `"uses":[]`) {
			t.Errorf("%s: empty plan serves %s, want \"uses\":[]", c.name, mustJSON(t, got))
		}
	}

	if _, err := fromUses.Summarize(binset.MustJelly(2)); err == nil {
		t.Error("Summarize accepted a plan naming a cardinality the menu lacks")
	}
}

// summaryByUses is the oracle of TestPlanSummaryParity: the summary counted
// use by use over EachUse, sharing none of Summarize's run arithmetic, with
// the cost summed in use order, which Plan.Cost matches bit for bit
// (FuzzPlanCostExact).
func summaryByUses(t *testing.T, plan *core.Plan, bins core.BinSet) core.Summary {
	t.Helper()
	sum := core.Summary{Uses: []core.CardinalityUses{}}
	err := plan.EachUse(func(card int, tasks []int) error {
		b, ok := bins.ByCardinality(card)
		if !ok {
			return fmt.Errorf("no bin of cardinality %d", card)
		}
		sum.NumUses++
		sum.NumAssignments += len(tasks)
		sum.Cost += b.Cost
		i, found := slices.BinarySearchFunc(sum.Uses, card, func(r core.CardinalityUses, l int) int { return r.Cardinality - l })
		if !found {
			sum.Uses = slices.Insert(sum.Uses, i, core.CardinalityUses{Cardinality: card})
		}
		sum.Uses[i].Count++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return sum
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestLogRequestLine pins the per-request log line byte for byte, as the
// text handler renders it, and against the ...any call it replaced; and
// the minted request id against the fmt form it replaced.
func TestLogRequestLine(t *testing.T) {
	var buf bytes.Buffer
	noTime := func(_ []string, a slog.Attr) slog.Attr {
		if a.Key == slog.TimeKey {
			return slog.Attr{}
		}
		return a
	}
	logger := slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{ReplaceAttr: noTime}))
	s := &Service{slog: logger}
	rm := &routeMetrics{method: "POST", route: "/v1/decompose"}
	r := httptest.NewRequest("POST", "/v1/decompose?x=1", nil)
	d := 1234567 * time.Nanosecond

	s.logRequest(rm, r, "5f3a-2b", 200, d)
	got := buf.String()
	const want = `level=INFO msg="http request" request_id=5f3a-2b method=POST route=/v1/decompose path=/v1/decompose status=200 duration_ms=1.234` + "\n"
	if got != want {
		t.Errorf("log line\n got %q\nwant %q", got, want)
	}
	buf.Reset()
	logger.Log(r.Context(), slog.LevelInfo, "http request",
		"request_id", "5f3a-2b", "method", rm.method, "route", rm.route, "path", r.URL.Path,
		"status", 200, "duration_ms", float64(d.Microseconds())/1e3)
	if buf.String() != got {
		t.Errorf("LogAttrs line differs from the ...any form:\n got %q\nwant %q", got, buf.String())
	}

	buf.Reset()
	s.logRequest(&routeMetrics{method: "GET", route: "/v1/healthz", quiet: true}, r, "x", 200, d)
	if buf.Len() != 0 {
		t.Errorf("a quiet route logged at Info: %q", buf.String())
	}

	// The minted request id keeps its fmt "%x-%x" form.
	m := &serviceMetrics{admissionBootID: 0x7_9abc_def0}
	m.admissionSeq.Store(0xfe)
	if got, want := m.nextRequestID(), fmt.Sprintf("%x-%x", int64(0x9abc_def0), 0xff); got != want {
		t.Errorf("request id %q, want %q", got, want)
	}
}

// decomposeHandlerAllocBudget is the committed allocs/op budget of a warm
// POST /v1/decompose through NewHandler (Jelly-20, t = 0.9, n = 10,000,
// summary only, no batching), taken as the minimum over allocWindows
// windows: 18 measured on every run, 22 or 23 under -race, whose sync.Pool
// drops a random quarter of its Puts, so the count itself varies. It was 64
// before the queue carried its run recipes — the per-solve recipes, the
// summary's map, NewBinSet's reflect swapper, the boxed log attributes and
// the fmt-formatted request id — 41 (47) before the menu table, which
// drops the bins' reflect decode and NewBinSet's copy, 34 (39) before
// Plan.Cost kept its part costs on the stack, and 33 (37 or 38) before the
// body reader replaced the reflective decode of the rest of the body. Each
// build's budget is its measurement plus about 15 %.
func decomposeHandlerAllocBudget() float64 {
	if raceBuild {
		return 27
	}
	return 21
}

// decomposeHandlerBytesBudget is the committed B/op budget of the same
// request: 1,504 B measured (up to 2,522 B under -race); 4,432 B (up to
// 5,428 B) while a json.Decoder decoded the body, into its own buffer of
// 512 B grown to 1,536 B, and a Plan carried its materialization cache.
// Each build's budget is its measurement plus about 15 %.
func decomposeHandlerBytesBudget() float64 {
	if raceBuild {
		return 2900
	}
	return 1728
}

// TestDecomposeHandlerAllocBudget is the clock-free gate on the warm route:
// the request is decoded, solved over the cached queue, summarized, encoded
// and logged through a text handler, all counted; the requests and
// recorders are built outside the measurement.
func TestDecomposeHandlerAllocBudget(t *testing.T) {
	svc := New(Config{CacheSize: 8, Workers: 2, Slog: slog.New(slog.NewTextHandler(io.Discard, nil))})
	defer svc.Close()
	h := NewHandler(svc)
	bins, err := json.Marshal(binset.MustJelly(20).Bins())
	if err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"bins":%s,"n":10000,"threshold":0.9}`, bins)
	const runs = 50
	reqs := make([]*http.Request, 2+allocWindows*runs)
	recs := make([]*httptest.ResponseRecorder, len(reqs))
	for i := range reqs {
		reqs[i] = httptest.NewRequest("POST", "/v1/decompose", strings.NewReader(body))
		recs[i] = httptest.NewRecorder()
	}
	next := 0
	serve := func() {
		h.ServeHTTP(recs[next], reqs[next])
		if recs[next].Code != http.StatusOK {
			t.Fatalf("status %d: %s", recs[next].Code, recs[next].Body)
		}
		next++
	}
	serve() // build and cache the queue
	allocs, perOp := allocsAndBytesPerRun(runs, serve)
	t.Logf("warm POST /v1/decompose: %.0f allocs/op, %.0f B/op", allocs, perOp)
	if budget := decomposeHandlerAllocBudget(); allocs > budget {
		t.Errorf("warm POST /v1/decompose: %.0f allocs/op, over the committed budget of %.0f", allocs, budget)
	}
	if budget := decomposeHandlerBytesBudget(); perOp > budget {
		t.Errorf("warm POST /v1/decompose: %.0f B/op, over the committed budget of %.0f", perOp, budget)
	}

	// The plan-bearing rows: the same menu at big-plan's n with the whole
	// plan, as JSON and as NDJSON, into a writer that drops the body.
	planBody := fmt.Sprintf(`{"bins":%s,"n":300000,"threshold":0.9,"include_plan":true}`, bins)
	const planRuns = 10
	for _, accept := range []string{"application/json", "application/x-ndjson"} {
		reqs := make([]*http.Request, 1+allocWindows*planRuns)
		ws := make([]*discardResponse, len(reqs))
		for i := range reqs {
			reqs[i] = httptest.NewRequest("POST", "/v1/decompose", strings.NewReader(planBody))
			reqs[i].Header.Set("Accept", accept)
			ws[i] = &discardResponse{header: http.Header{}}
		}
		next := 0
		allocs, perOp := allocsAndBytesPerRun(planRuns, func() {
			h.ServeHTTP(ws[next], reqs[next])
			if ws[next].code != http.StatusOK || ws[next].written < 2<<20 {
				t.Fatalf("%s: status %d, %d bytes of body", accept, ws[next].code, ws[next].written)
			}
			next++
		})
		t.Logf("warm POST /v1/decompose include_plan %s: %.0f allocs/op, %.0f B/op", accept, allocs, perOp)
		if budget := planHandlerBytesBudget(); perOp > budget {
			t.Errorf("warm POST /v1/decompose include_plan %s: %.0f B/op, over the committed budget of %.0f", accept, perOp, budget)
		}
	}
}

// batchHandlerAllocBudget is the committed allocs/op budget of a warm
// 64-member POST /v1/decompose/batch through NewHandler (Jelly-20,
// t = 0.9, n from 1,000 to 64,000, no batching): 335 measured (338–342
// under -race), 404 (408–411) while each member's threshold took an
// allocation of its own and the member slice grew by append, 420
// (424–426) while a json.Decoder decoded the body and 485 (492) while
// Plan.Cost allocated its part costs once per member. Each budget is its
// measurement plus about 15 %, 51 allocations: under one per member, so
// one scratch allocation more per member fails it.
func batchHandlerAllocBudget() float64 {
	if raceBuild {
		return 394
	}
	return 386
}

// batchHandlerBytesBudget is the committed B/op budget of the same call:
// 26,360 B measured (up to 42,989 B under -race); 29,464 B (up to
// 43,982 B) while the member slice grew by append; 42,520 B (up to
// 53,571 B) while a json.Decoder decoded the body and each member's Plan
// carried a materialization cache, 152 B in all instead of 64 B. Each
// build's budget is its measurement plus about 15 %.
func batchHandlerBytesBudget() float64 {
	if raceBuild {
		return 49500
	}
	return 30300
}

// TestDecomposeBatchHandlerAllocBudget is the clock-free gate on the warm
// batch route, the shape of the ledger's burst-batch op: the body is
// decoded, 64 members are solved over the cached queue and summarized,
// and the reply is encoded and logged, all counted.
func TestDecomposeBatchHandlerAllocBudget(t *testing.T) {
	svc := New(Config{CacheSize: 8, Workers: 2, Slog: slog.New(slog.NewTextHandler(io.Discard, nil))})
	defer svc.Close()
	h := NewHandler(svc)
	bins, err := json.Marshal(binset.MustJelly(20).Bins())
	if err != nil {
		t.Fatal(err)
	}
	var body strings.Builder
	fmt.Fprintf(&body, `{"bins":%s,"instances":[`, bins)
	for i := range 64 {
		if i > 0 {
			body.WriteByte(',')
		}
		fmt.Fprintf(&body, `{"n":%d,"threshold":0.9}`, 1000*(i+1))
	}
	body.WriteString(`]}`)
	const runs = 20
	reqs := make([]*http.Request, 1+allocWindows*runs)
	ws := make([]*discardResponse, len(reqs))
	for i := range reqs {
		reqs[i] = httptest.NewRequest("POST", "/v1/decompose/batch", strings.NewReader(body.String()))
		ws[i] = &discardResponse{header: http.Header{}}
	}
	next := 0
	allocs, perOp := allocsAndBytesPerRun(runs, func() {
		h.ServeHTTP(ws[next], reqs[next])
		if ws[next].code != http.StatusOK {
			t.Fatalf("status %d", ws[next].code)
		}
		next++
	})
	t.Logf("warm POST /v1/decompose/batch, 64 members: %.0f allocs/op, %.0f B/op", allocs, perOp)
	if budget := batchHandlerAllocBudget(); allocs > budget {
		t.Errorf("warm POST /v1/decompose/batch: %.0f allocs/op, over the committed budget of %.0f", allocs, budget)
	}
	if budget := batchHandlerBytesBudget(); perOp > budget {
		t.Errorf("warm POST /v1/decompose/batch: %.0f B/op, over the committed budget of %.0f", perOp, budget)
	}
}

// planHandlerBytesBudget is the committed bytes/op budget of a warm
// include_plan POST /v1/decompose at n = 300,000 (2.6 MB of plan, the
// ledger's big-plan body) as JSON and as NDJSON: 1,088 B and 1,072 B
// measured (up to 1,844 B under -race), none of it the encoder's; 4,016 B
// and 4,000 B (up to 5,030 B) while a json.Decoder decoded the body and
// the Plan carried a materialization cache, 4,032 B and 4,016 B while the
// interned bins kept a flag that put the decoded body in the 160 B size
// class, 5,984 B (6,486 B) before the menu table. Commit a08cf0b, whose
// encoders made a 32 KiB chunk per call, reads 38.8 KB on the same loop.
// Each build's budget is its measurement plus about 15 %.
func planHandlerBytesBudget() float64 {
	if raceBuild {
		return 2120
	}
	return 1248
}

// discardResponse is a ResponseWriter that keeps the status and counts the
// body without holding it.
type discardResponse struct {
	header  http.Header
	code    int
	written int
}

func (d *discardResponse) Header() http.Header { return d.header }

func (d *discardResponse) WriteHeader(code int) { d.code = code }

func (d *discardResponse) Write(p []byte) (int, error) {
	if d.code == 0 {
		d.code = http.StatusOK
	}
	d.written += len(p)
	return len(p), nil
}

// allocWindows is how many measured windows allocsAndBytesPerRun takes.
const allocWindows = 5

// allocsAndBytesPerRun is testing.AllocsPerRun that also reports the bytes
// allocated: f runs once to warm up, then runs times, at GOMAXPROCS 1.
// MemStats are process-wide, so another goroutine's allocation (the
// runtime's, or a -race build's) can land in a window; the window is
// measured allocWindows times and each metric keeps its minimum — background
// allocation only adds, so the minimum is f's own cost. f therefore runs
// 1 + allocWindows*runs times in all.
func allocsAndBytesPerRun(runs int, f func()) (allocs, bytesPerOp float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	allocs, bytesPerOp = math.Inf(1), math.Inf(1)
	var before, after runtime.MemStats
	for range allocWindows {
		runtime.ReadMemStats(&before)
		for range runs {
			f()
		}
		runtime.ReadMemStats(&after)
		allocs = min(allocs, float64(after.Mallocs-before.Mallocs)/float64(runs))
		bytesPerOp = min(bytesPerOp, float64(after.TotalAlloc-before.TotalAlloc)/float64(runs))
	}
	return allocs, bytesPerOp
}
