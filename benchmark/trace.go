package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/crowdsim"
	"repro/internal/executor"
	"repro/internal/opq"
	"repro/internal/platform"
	"repro/internal/service"
	"repro/internal/store"
)

// The traced run attributes an op's time to layers from outside the
// program: it replays the same ops single-threaded at successive depths —
// over the socket, through the handler without a socket, through the
// service's Go API, through the solver without the batcher, and so on down
// to opq.Build — and records one span per call. A span's parent is the
// span of the same op one depth further out; a layer's self time is its
// span minus its children's. Nothing inside the program is instrumented.

// span is one timed call, as written to <out>/<workload>.trace.jsonl.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for an outermost span
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Depth  int    `json:"depth"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	chain map[[2]int]int // (op, depth) -> id of the span children hang off
}

func newTracer() *tracer { return &tracer{t0: time.Now(), chain: make(map[[2]int]int)} }

// add records a span; chain marks it as the parent of the op's spans at
// the next depth.
func (t *tracer) add(name string, op, depth int, chain bool, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := span{
		ID: len(t.spans) + 1, Parent: t.chain[[2]int{op, depth - 1}], Name: name, Op: op, Depth: depth,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
	}
	t.spans = append(t.spans, s)
	if chain {
		t.chain[[2]int{op, depth}] = s.ID
	}
}

// ms returns each op's total time in spans of the given name.
func (t *tracer) ms(name string) map[int]float64 {
	out := make(map[int]float64)
	for _, s := range t.spans {
		if s.Name == name {
			out[s.Op] += float64(s.End-s.Start) / 1e6
		}
	}
	return out
}

// selfMS is the median over ops of outer minus the inner spans of the same
// op: the time the outer layer adds on top of what it calls.
func selfMS(outer map[int]float64, inner ...map[int]float64) float64 {
	diffs := make([]float64, 0, len(outer))
	for op, d := range outer {
		for _, in := range inner {
			d -= in[op]
		}
		diffs = append(diffs, d)
	}
	return median(diffs)
}

func medianOf(m map[int]float64) float64 { return selfMS(m) }

// layerRow names one line of the self-time table: a layer, the span that
// covers it and the spans of what it calls.
type layerRow struct {
	layer, span string
	inner       []string
}

// selfTolerance is the replays' resolution: a median self time may read
// below zero by this share of the span it is taken from before the replay
// counts as wrong. The depths are separate executions, so a layer that
// adds nearly nothing differs from its child by noise of either sign.
const selfTolerance = 0.03

// selfTable prints, for each row, the median span and the median self time
// (span minus inner spans, per op), and returns a complaint for every row
// that has no spans or whose self time is negative beyond selfTolerance.
func (t *tracer) selfTable(w io.Writer, rows []layerRow) (problems []string) {
	fmt.Fprintf(w, "%-48s %5s %11s %11s\n", "layer (span)", "ops", "span ms", "self ms")
	for _, r := range rows {
		outer := t.ms(r.span)
		inner := make([]map[int]float64, len(r.inner))
		for i, name := range r.inner {
			inner[i] = t.ms(name)
		}
		span, self := medianOf(outer), selfMS(outer, inner...)
		fmt.Fprintf(w, "%-48s %5d %11.4f %11.4f\n", r.layer+" ("+r.span+")", len(outer), span, self)
		switch {
		case len(outer) == 0:
			problems = append(problems, fmt.Sprintf("no %s spans", r.span))
		case self < -selfTolerance*span:
			problems = append(problems, fmt.Sprintf("%s: median self time %.4f ms is negative beyond %.0f %% of its %.4f ms span", r.layer, self, 100*selfTolerance, span))
		}
	}
	return problems
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// counters is a point-in-time reading of everything the benchmark can see
// from outside: the entry service's public stats and the marketplace's.
type counters struct {
	stats            service.Stats
	requests, replay uint64
	charged          float64
}

func readCounters(st *stack) counters {
	c := counters{stats: st.svc.Stats()}
	if st.market != nil {
		c.requests, c.replay, c.charged = st.market.Requests(), st.market.Replays(), st.market.Charged()
	}
	return c
}

func httpClass(s service.Stats, class string) (n uint64) {
	for _, e := range s.Endpoints {
		n += e.Status[class]
	}
	return n
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// replayAttempts is how often the depth replays may be taken before a
// traced run gives up: a replay that met one of the machine's slow seconds
// fails its own checks and is taken again. cluster-fanout needs the room:
// its latencies have two modes a third apart, the median sits between
// them, and its replays read 11-13 % below the timed rounds.
const replayAttempts = 5

// socketTolerance is how far the median socket span of the replays may lie
// from the median latency of timed one-client rounds of the same ops.
const socketTolerance = 0.15

// tracedRun measures the per-layer metrics. Three passes on one stack:
// untraced rounds for the counters and the client's tail latencies, the
// depth replays for the spans, and paired rounds with and without client
// spans for the tracing overhead.
func tracedRun(cfg *config, w *workload) (*result, error) {
	t := &tally{errw: cfg.stderr}     // ops the client sent over the socket
	calls := &tally{errw: cfg.stderr} // in-process calls of the replays
	st, ops, _, err := setUp(cfg, w)
	if err != nil {
		return nil, err
	}
	defer st.close()
	res := newResult(t)
	for _, d := range perLayer {
		res.set(d.name, 0)
	}

	// Pass 1: counters around untraced rounds, half the measuring time.
	var lats []float64
	segments := make(map[string][]float64) // run jobs: client-visible parts
	frames, retries := 0, 0
	before := readCounters(st)
	passStart := time.Now()
	for n := 0; n == 0 || time.Since(passStart).Seconds() < cfg.seconds/2; n++ {
		r, _, _ := t.round(fmt.Sprintf("round %d", n+1), st, w, ops, w.clients(), nil)
		lats = append(lats, r.latencies()...)
		for i := range r.outcomes {
			o := &r.outcomes[i]
			for name, d := range map[string]time.Duration{
				"service.jobs.submit_ms": o.job.submit, "service.jobs.run_ms": o.job.run,
				"service.jobs.fetch_ms": o.job.fetch, "service.events.first_frame_ms": o.job.firstFrame,
			} {
				segments[name] = append(segments[name], float64(d)/float64(time.Millisecond))
			}
			frames += o.job.frames
			retries += o.retries
		}
	}
	after := readCounters(st)
	nOps := float64(t.attempted)
	res.set("client.lat_p95_ms", quantile(lats, 0.95))
	res.set("client.lat_p99_ms", quantile(lats, 0.99))
	res.set("client.lat_max_ms", quantile(lats, 1))
	res.set("client.bytes_in_per_op", float64(t.bytesIn)/nOps)
	countersToMetrics(res, before, after, nOps)
	if w.kind == opJob {
		for name, v := range segments {
			res.set(name, median(v))
		}
		res.set("service.events.frames_per_job", float64(frames)/nOps)
		res.set("executor.retries", float64(retries))
	}

	// Pass 2: the depth replays, checked against themselves (every layer
	// has spans, no self time is negative) and against timed one-client
	// rounds of the same ops (replaying does not perturb what it measures).
	rp := &replayer{w: w, st: st, res: res, client: t, calls: calls, out: cfg.stdout, direct: &service.ShardedSolver{Cache: st.svc.Cache()}}
	for i := 0; i < max(2, int(float64(w.traceOps)*cfg.scale)); i++ {
		rp.ops = append(rp.ops, ops[i%len(ops)])
	}
	if err := buildInstances(rp.ops); err != nil {
		return nil, err
	}
	for attempt := 1; ; attempt++ {
		rp.tr = newTracer()
		// The timed rounds bracket the replays, so that a drift of the
		// machine over these seconds shifts both medians alike.
		soloBefore, _, _ := t.round("solo round", st, w, rp.ops, 1, nil)
		var problems []string
		if w.kind != opJob {
			problems = rp.solveChain()
		} else if problems, err = rp.jobChain(cfg.outDir); err != nil {
			return nil, err
		}
		soloAfter, _, _ := t.round("solo round", st, w, rp.ops, 1, nil)
		socket, timed := medianOf(rp.tr.ms("socket")), median(append(soloBefore.latencies(), soloAfter.latencies()...))
		fmt.Fprintf(cfg.stdout, "socket span median %.3f ms; one-client timed rounds of the same %d ops before and after %.3f ms (ratio %.3f)\n",
			socket, len(rp.ops), timed, ratio(socket, timed))
		if math.Abs(socket-timed) > socketTolerance*timed {
			problems = append(problems, fmt.Sprintf("socket span median %.3f ms is not within %.0f %% of the timed rounds' %.3f ms", socket, 100*socketTolerance, timed))
		}
		if len(problems) == 0 {
			break
		}
		if cfg.scale < 1 {
			// A handful of ops per depth resolves no median.
			fmt.Fprintf(cfg.stdout, "replay checks not enforced at scale %v: %s\n", cfg.scale, strings.Join(problems, "; "))
			break
		}
		fmt.Fprintf(cfg.stdout, "replay attempt %d of %d rejected: %s\n", attempt, replayAttempts, strings.Join(problems, "; "))
		if attempt == replayAttempts {
			return nil, fmt.Errorf("depth replays failed their checks %d times: %s", replayAttempts, strings.Join(problems, "; "))
		}
	}

	// Pass 3: tracing overhead, as lost throughput with client spans on.
	var plain, traced []float64
	for i := 0; i < 2; i++ {
		r, _, _ := t.round("overhead round", st, w, ops, w.clients(), nil)
		plain = append(plain, r.opsPerSec())
		r, _, _ = t.round("overhead round", st, w, ops, w.clients(), func(id int, start time.Time, out *outcome) {
			rp.tr.add("client.op", id, 0, false, start, start.Add(out.lat))
		})
		traced = append(traced, r.opsPerSec())
	}
	res.set("client.trace_overhead_ratio", 1-ratio(median(traced), median(plain)))

	res.set("client.sent", float64(t.attempted))
	res.set("client.ok", float64(t.attempted-t.failed))
	res.set("client.failed", float64(t.failed))
	res.Attempted, res.Failed = t.attempted+calls.attempted, t.failed+calls.failed
	res.Correct = res.Failed == 0
	path := filepath.Join(cfg.outDir, w.name+".trace.jsonl")
	if err := rp.tr.write(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.stdout, "%d spans written to %s\n", len(rp.tr.spans), path)
	return res, nil
}

// countersToMetrics turns the difference of two readings into the
// count-based layer metrics.
func countersToMetrics(res *result, a, b counters, nOps float64) {
	sa, sb := a.stats, b.stats
	res.set("service.api.http_4xx", float64(httpClass(sb, "4xx")-httpClass(sa, "4xx")))
	res.set("service.api.http_5xx", float64(httpClass(sb, "5xx")-httpClass(sa, "5xx")))
	batches := float64(sb.Batch.Batches - sa.Batch.Batches)
	res.set("service.batch.batches", batches)
	res.set("service.batch.mean_size", ratio(float64(sb.Batch.BatchedRequests-sa.Batch.BatchedRequests), batches))
	res.set("service.batch.window_timeout_ratio", ratio(float64(sb.Batch.WindowTimeouts-sa.Batch.WindowTimeouts), batches))
	hits, misses := float64(sb.Cache.Hits-sa.Cache.Hits), float64(sb.Cache.Misses-sa.Cache.Misses)
	res.set("service.cache.hit_ratio", ratio(hits, hits+misses))
	res.set("service.cache.builds", float64(sb.Cache.Builds-sa.Cache.Builds))
	res.set("service.cache.evictions", float64(sb.Cache.Evictions-sa.Cache.Evictions))
	res.set("service.cache.coalesced", float64(sb.Cache.Coalesced-sa.Cache.Coalesced))
	// Stats exposes its two latency histograms as quantiles only, which
	// cannot be diffed: queue_wait_p95_ms and peer_p50_ms cover everything
	// since boot, the warm-up round included.
	res.set("service.shard.queue_wait_p95_ms", sb.QueueWait.P95MS)
	if ca, cb := sa.Cluster, sb.Cluster; ca != nil && cb != nil {
		res.set("cluster.spans_per_op", float64(cb.SpansRemote+cb.SpansLocal-ca.SpansRemote-ca.SpansLocal)/nOps)
		res.set("cluster.fallbacks", float64(cb.Fallbacks-ca.Fallbacks))
		var retries, opens uint64
		var p50, reqs float64
		for i, p := range cb.Peers {
			retries += p.Retries - ca.Peers[i].Retries
			opens += p.BreakerOpens - ca.Peers[i].BreakerOpens
			p50 += p.Latency.P50MS * float64(p.Requests)
			reqs += float64(p.Requests)
		}
		res.set("cluster.retries", float64(retries))
		res.set("cluster.breaker_opens", float64(opens))
		res.set("cluster.peer_p50_ms", ratio(p50, reqs))
	}
	res.set("service.jobs.persisted", float64(sb.Jobs.Persisted-sa.Jobs.Persisted))
	res.set("executor.bins_per_op", float64(sb.Jobs.RunBinsIssued-sa.Jobs.RunBinsIssued)/nOps)
	res.set("executor.top_up_rounds", float64(sb.Jobs.RunTopUpRounds-sa.Jobs.RunTopUpRounds))
	res.set("platform.requests_per_op", float64(b.requests-a.requests)/nOps)
	res.set("platform.replays", float64(b.replay-a.replay))
	// Two running float sums of ~10^5 payments each: compared to the
	// micro-dollar, a thousandth of the cheapest bin.
	res.set("platform.charged_minus_spent", math.Round(((b.charged-a.charged)-(sb.Jobs.RunSpend-sa.Jobs.RunSpend))*1e6)/1e6+0) // +0 turns -0 into 0
	if pa, pb := sa.Platform, sb.Platform; pa != nil && pb != nil {
		res.set("platform.retries", float64(pb.Retries-pa.Retries))
	}
}

// buildInstances gives every op the instances of its members, which only
// the in-process depths need; ops of one shape share one.
func buildInstances(ops []*op) error {
	shared := make(map[[2]float64]*core.Instance) // (threshold, n)
	for _, o := range ops {
		if o.ins != nil {
			continue // listed twice: a reduced-scale round is shorter than traceOps
		}
		for _, e := range o.want {
			key := [2]float64{o.threshold, float64(e.n)}
			if shared[key] == nil {
				in, err := core.NewHomogeneous(o.menu.bins, e.n, o.threshold)
				if err != nil {
					return err
				}
				shared[key] = in
			}
			o.ins = append(o.ins, shared[key])
		}
	}
	return nil
}

// replayer runs the depth replays over the first traceOps ops.
type replayer struct {
	w      *workload
	st     *stack
	ops    []*op
	tr     *tracer // fresh for every attempt
	res    *result
	client *tally // the socket stage's ops: the client sent them
	calls  *tally // every other stage's calls
	out    io.Writer
	direct *service.ShardedSolver // the solver with no batcher in front
}

// stage is one layer boundary of a replay: fn makes the call for op i and
// the time it takes becomes a span. chain marks the span the next depth's
// spans of the same op hang off.
type stage struct {
	name  string
	depth int
	chain bool
	fn    func(i int, o *op) error
	// heap, when non-nil, accumulates what the stage's calls allocate.
	heap *heapCount
	// after, when non-nil, runs once the op's span is recorded — the
	// place to add spans that name it as their parent.
	after func(i int)
}

type heapCount struct{ objects, bytes uint64 }

// replayChunk is how many consecutive ops a stage replays before the next
// stage takes the same ops.
const replayChunk = 5

// play runs the stages over the ops. Hot-menu workloads go a few ops at a
// time — every stage over ops 0-4, then every stage over ops 5-9 — so the
// spans an op's self times are taken from lie a fraction of a second apart
// and slow drift cancels, while each stage still runs back to back long
// enough to meet its own garbage. cold-menu must go stage by stage:
// revisiting a threshold right away would hit the cache, while a whole
// pass over more thresholds than the cache holds keeps every Get a miss at
// every depth.
func (rp *replayer) play(stages []stage) {
	chunk := replayChunk
	if rp.w.name == "cold-menu" {
		chunk = len(rp.ops)
	}
	for lo := 0; lo < len(rp.ops); lo += chunk {
		hi := min(lo+chunk, len(rp.ops))
		for _, sg := range stages {
			var a, b runtime.MemStats
			if sg.heap != nil {
				runtime.ReadMemStats(&a)
			}
			for i := lo; i < hi; i++ {
				start := time.Now()
				err := sg.fn(i, rp.ops[i])
				rp.tr.add(sg.name, i, sg.depth, sg.chain, start, time.Now())
				t := rp.calls
				if sg.depth == 0 {
					t = rp.client
				}
				t.attempted++
				if err != nil {
					t.fail(fmt.Sprintf("traced %s op %d: %v", sg.name, i, err))
				}
				if sg.after != nil {
					sg.after(i)
				}
			}
			if sg.heap != nil {
				runtime.ReadMemStats(&b)
				sg.heap.objects += b.Mallocs - a.Mallocs
				sg.heap.bytes += b.TotalAlloc - a.TotalAlloc
			}
		}
	}
}

// sink is a ResponseWriter with no socket behind it. It keeps the first
// few hundred bytes (a job id is in them) and drops the rest.
type sink struct {
	header http.Header
	status int
	head   []byte
}

func (s *sink) Header() http.Header { return s.header }
func (s *sink) WriteHeader(code int) {
	if s.status == 0 {
		s.status = code
	}
}
func (s *sink) Write(p []byte) (int, error) {
	s.WriteHeader(http.StatusOK)
	if room := 512 - len(s.head); room > 0 {
		s.head = append(s.head, p[:min(room, len(p))]...)
	}
	return len(p), nil
}
func (s *sink) Flush() {}

// serve calls the handler in-process and checks the status.
func (rp *replayer) serve(method, path string, body []byte, accept string, want int) (*sink, error) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	s := &sink{header: make(http.Header)}
	rp.st.handler.ServeHTTP(s, req)
	if s.status != want {
		return s, fmt.Errorf("%s %s: status %d: %s", method, path, s.status, firstLine(s.head))
	}
	return s, nil
}

// members runs fn for every instance of the op — concurrently, as the
// batch handler does, when there are several.
func members(o *op, fn func(j int, in *core.Instance) error) error {
	if len(o.ins) == 1 {
		return fn(0, o.ins[0])
	}
	errs := make([]error, len(o.ins))
	var wg sync.WaitGroup
	for j, in := range o.ins {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[j] = fn(j, in)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// solveChain replays decompose and batch ops:
//
//	socket > service.api > service.decompose [> service.decompose.sharded]
//	  > service.shard > service.cache > opq.build
//
// with opq.solve beside service.cache, an always-hit Get under it, and the
// two plan encoders beside service.decompose on plan-bearing ops.
func (rp *replayer) solveChain() (problems []string) {
	ctx := context.Background()
	svc, res, tr := rp.st.svc, rp.res, rp.tr
	path := "/v1/decompose"
	if rp.w.kind == opBatch {
		path = "/v1/decompose/batch"
	}
	clustered := svc.DefaultSolver() == service.ClusterSolverName
	wk := &worker{st: rp.st}
	plans := make([]*core.Plan, len(rp.ops))
	queues := make([]*opq.Queue, len(rp.ops))
	var apiHeap, solveHeap, streamHeap heapCount
	var streamed countWriter

	entry := func(solver string) func(int, *op) error {
		return func(_ int, o *op) error {
			return members(o, func(j int, in *core.Instance) error {
				_, sum, err := svc.DecomposeSummarized(ctx, solver, in)
				if err == nil && sum.Cost != o.want[j].cost {
					err = fmt.Errorf("cost %v, oracle %v", sum.Cost, o.want[j].cost)
				}
				return err
			})
		}
	}
	stages := []stage{
		{name: "socket", depth: 0, chain: true, fn: func(_ int, o *op) error { return wk.run(rp.w.kind, o).err }},
		{name: "service.api", depth: 1, chain: true, heap: &apiHeap, fn: func(_ int, o *op) error {
			accept := ""
			if o.ndjson {
				accept = "application/x-ndjson"
			}
			_, err := rp.serve(http.MethodPost, path, o.body, accept, http.StatusOK)
			return err
		}},
		{name: "service.decompose", depth: 2, chain: true, fn: entry(svc.DefaultSolver())},
	}
	depth, batched := 2, "service.decompose"
	if clustered {
		// The same request kept on this node: the difference is the hop.
		depth, batched = 3, "service.decompose.sharded"
		stages = append(stages, stage{name: batched, depth: depth, chain: true, fn: entry(service.DefaultSolverName)})
	}
	stages = append(stages,
		stage{name: "service.shard", depth: depth + 1, chain: true, fn: func(i int, o *op) error {
			return members(o, func(j int, in *core.Instance) error {
				p, err := rp.direct.SolveContext(ctx, in)
				if j == 0 {
					plans[i] = p
				}
				return err
			})
		}},
		stage{name: "service.cache", depth: depth + 2, chain: true, fn: func(i int, o *op) (err error) {
			queues[i], err = svc.Cache().Get(o.menu.bins, o.ins[0].Threshold(0))
			return err
		}, after: func(i int) {
			// Straight after any Get the queue is resident: this one hits.
			o, start := rp.ops[i], time.Now()
			svc.Cache().Get(o.menu.bins, o.ins[0].Threshold(0)) //nolint:errcheck // same call as above
			tr.add("service.cache.hit", i, depth+3, false, start, time.Now())
		}},
		stage{name: "opq.solve", depth: depth + 2, heap: &solveHeap, fn: func(i int, o *op) error {
			for _, in := range o.ins {
				if _, err := opq.SolveRunsRange(queues[i], 0, in.N()); err != nil {
					return err
				}
			}
			return nil
		}},
		stage{name: "opq.build", depth: depth + 3, fn: func(_ int, o *op) error {
			_, err := opq.Build(o.menu.bins, o.ins[0].Threshold(0))
			return err
		}},
	)
	planBearing := rp.ops[0].plan != nil
	if planBearing {
		stages = append(stages,
			stage{name: "core.encode_stream", depth: 2, heap: &streamHeap, fn: func(i int, _ *op) error {
				return plans[i].EncodeUsesNDJSON(&streamed)
			}},
			stage{name: "core.encode_marshal", depth: 2, fn: func(i int, _ *op) error {
				return json.NewEncoder(io.Discard).Encode(plans[i].Materialized())
			}},
		)
	}
	rp.play(stages)

	nOps := float64(len(rp.ops))
	solves := nOps * float64(len(rp.ops[0].ins))
	res.set("service.api.allocs_per_op", float64(apiHeap.objects)/nOps)
	if clustered {
		res.set("cluster.hop_ms", selfMS(tr.ms("service.decompose"), tr.ms(batched)))
	}
	res.set("service.batch.wait_ms", selfMS(tr.ms(batched), tr.ms("service.shard")))
	res.set("service.shard.solve_ms", medianOf(tr.ms("service.shard")))
	res.set("service.cache.get_hit_us", 1e3*medianOf(tr.ms("service.cache.hit")))
	res.set("opq.solve_us", 1e3*medianOf(tr.ms("opq.solve"))*nOps/solves)
	res.set("opq.solve_allocs_per_op", float64(solveHeap.objects)/solves)
	res.set("opq.build_ms", medianOf(tr.ms("opq.build")))
	encode := map[int]float64{}
	if planBearing {
		stream, marshal := tr.ms("core.encode_stream"), tr.ms("core.encode_marshal")
		total := 0.0
		for i, o := range rp.ops {
			encode[i] = marshal[i]
			if o.ndjson {
				encode[i] = stream[i]
			}
			total += stream[i]
		}
		res.set("core.encode_stream_ms", medianOf(stream))
		res.set("core.encode_marshal_ms", medianOf(marshal))
		res.set("core.encode_mb_per_s", ratio(float64(streamed.n)/1e6, total/1e3))
		res.set("core.encode_alloc_kb", float64(streamHeap.bytes)/1024/nOps)
	}
	res.set("service.api.socket_ms", selfMS(tr.ms("socket"), tr.ms("service.api")))
	res.set("service.api.self_ms", selfMS(tr.ms("service.api"), tr.ms("service.decompose"), encode))

	rows := []layerRow{
		{"client+socket", "socket", []string{"service.api"}},
		{"service.api+core", "service.api", []string{"service.decompose"}},
	}
	if clustered {
		rows = append(rows, layerRow{"cluster", "service.decompose", []string{batched}})
	}
	rows = append(rows,
		layerRow{"service.batch", batched, []string{"service.shard"}},
		layerRow{"service.shard", "service.shard", []string{"service.cache", "opq.solve"}},
		layerRow{"service.cache", "service.cache", nil},
		layerRow{"service.cache hit", "service.cache.hit", nil},
		layerRow{"opq", "opq.solve", nil},
		layerRow{"opq", "opq.build", nil},
	)
	if planBearing {
		rows = append(rows, layerRow{"core", "core.encode_stream", nil}, layerRow{"core", "core.encode_marshal", nil})
	}
	return tr.selfTable(rp.out, rows)
}

// jobChain replays run jobs:
//
//	socket > service.api > service.jobs > service.jobs.runRun > platform
//
// with the client-visible segments (submit, first frame, run, fetch) under
// socket, the handler and manager calls for submit and fetch under their
// stages, executor inside runRun and the store calls beside it.
func (rp *replayer) jobChain(outDir string) (problems []string, err error) {
	ctx := context.Background()
	svc, res, tr := rp.st.svc, rp.res, rp.tr
	wk := &worker{st: rp.st}
	market, err := platform.NewClient(platform.Config{BaseURL: rp.st.market.URL()})
	if err != nil {
		return nil, err
	}
	// PutJob and GetJob are called on a scratch store, with a record like
	// the jobs'; the listing goes through the service's own handle on its
	// own directory, which holds the seeded and the measured records.
	scratch, err := os.MkdirTemp(outDir, "trace-store-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	fs, err := store.OpenFS(scratch, discardLog)
	if err != nil {
		return nil, err
	}
	defer fs.Close() //nolint:errcheck // scratch store, removed above
	rec, err := terminalRecord(rp.ops[0].menu, rp.w.n)
	if err != nil {
		return nil, err
	}
	truth := make([]bool, rp.w.n)
	for i := range truth {
		truth[i] = i%3 == 0
	}
	plans := make([]*core.Plan, len(rp.ops))
	var apiHeap heapCount
	bins, listed, storeFails := 0, 0, 0
	var sent time.Time // the socket stage's last op, for its segment spans
	var last outcome
	storeCall := func(fn func(i int) error) func(int, *op) error {
		return func(i int, _ *op) error {
			err := fn(i)
			if err != nil {
				storeFails++
			}
			return err
		}
	}
	// timed runs one call of a job op and records it as a child span.
	timed := func(name string, i, depth int, fn func() error) error {
		start := time.Now()
		err := fn()
		tr.add(name, i, depth, false, start, time.Now())
		return err
	}
	// events waits for the job's terminal frame through the in-process
	// handler, the same wait at the api and the jobs depth.
	events := func(id string) error {
		_, err := rp.serve(http.MethodGet, "/v1/jobs/"+id+"/events", nil, "", http.StatusOK)
		return err
	}
	rp.play([]stage{
		{name: "socket", depth: 0, chain: true, fn: func(_ int, o *op) error {
			sent = time.Now()
			last = wk.job(o)
			return last.err
		}, after: func(i int) {
			end, submitted := sent.Add(last.lat), sent.Add(last.job.submit)
			tr.add("service.jobs.submit", i, 1, false, sent, submitted)
			tr.add("service.events.first_frame", i, 1, false, submitted, submitted.Add(last.job.firstFrame))
			tr.add("service.jobs.run", i, 1, false, submitted, submitted.Add(last.job.run))
			tr.add("service.jobs.fetch", i, 1, false, end.Add(-last.job.fetch), end)
		}},
		{name: "service.api", depth: 1, chain: true, heap: &apiHeap, fn: func(i int, o *op) error {
			var id string
			err := timed("service.api.submit", i, 1, func() error {
				s, err := rp.serve(http.MethodPost, "/v1/jobs", o.body, "", http.StatusAccepted)
				if err == nil {
					_, err = fmt.Sscanf(string(s.head), `{"id":%q`, &id)
				}
				return err
			})
			if err == nil {
				err = events(id)
			}
			if err != nil {
				return err
			}
			return timed("service.api.fetch", i, 1, func() error {
				_, err := rp.serve(http.MethodGet, "/v1/jobs/"+id, nil, "", http.StatusOK)
				return err
			})
		}},
		{name: "service.jobs", depth: 2, chain: true, fn: func(i int, o *op) error {
			var id string
			err := timed("service.jobs.Submit", i, 2, func() (err error) {
				id, err = svc.Jobs().Submit(service.JobRequest{Run: &service.RunJob{
					Instance: o.ins[0], Platform: service.PlatformSpec{Kind: "remote", Seed: o.seed}, Options: executor.Options{TopUp: true},
				}})
				return err
			})
			if err == nil {
				err = events(id)
			}
			if err != nil {
				return err
			}
			return timed("service.jobs.Status", i, 2, func() error {
				st, err := svc.Jobs().Status(id)
				if err == nil && st.State != service.JobDone {
					err = fmt.Errorf("job %s %s: %s", id, st.State, st.Error)
				}
				return err
			})
		}},
		{name: "service.jobs.runRun", depth: 3, chain: true, fn: func(i int, o *op) (err error) {
			// What a run job does between its two store writes: plan
			// (through the batcher, like any request), then execute.
			if plans[i], err = svc.DecomposeWith(ctx, svc.DefaultSolver(), o.ins[0]); err != nil {
				return err
			}
			return timed("executor", i, 3, func() error {
				rep, err := executor.ExecuteContext(ctx, market.Runner(), o.ins[0], plans[i], truth,
					executor.Options{TopUp: true, RunID: fmt.Sprintf("trace-exec-%d", i)})
				if err == nil && rep.Degraded {
					err = fmt.Errorf("degraded: %s", rep.LastError)
				}
				return err
			})
		}},
		{name: "platform", depth: 4, fn: func(i int, o *op) error {
			runner, k := market.Runner(), 0
			return plans[i].EachUse(func(card int, tasks []int) error {
				bin, _ := o.menu.bins.ByCardinality(card)
				bc := executor.BinContext{RunID: fmt.Sprintf("trace-bin-%d", i), Bin: k}
				k++
				bins++
				_, err := runner.RunBinContext(ctx, bc, card, bin.Cost, crowdsim.DefaultDifficulty, truth[:len(tasks)])
				return err
			})
		}},
		{name: "store.put", depth: 3, fn: storeCall(func(i int) error {
			rec.ID = fmt.Sprintf("job-%d", i+1)
			return fs.PutJob(rec)
		})},
		{name: "store.get", depth: 3, fn: storeCall(func(i int) error {
			_, err := fs.GetJob(fmt.Sprintf("job-%d", i+1))
			return err
		})},
	})
	for i := 0; i < min(3, len(rp.ops)); i++ {
		start := time.Now()
		recs, err := rp.st.store.ListJobs()
		tr.add("store.list", i, 3, false, start, time.Now())
		rp.calls.attempted++
		if err != nil {
			storeFails++
			rp.calls.fail(fmt.Sprintf("traced store.list: %v", err))
		}
		listed = len(recs)
	}

	nOps := float64(len(rp.ops))
	res.set("service.api.allocs_per_op", float64(apiHeap.objects)/nOps)
	// Whole-job spans differ by a millisecond from one job to the next —
	// more than the socket or the handler adds — so those two self times
	// are taken over the submit and fetch calls only; the wait for the
	// terminal frame is the same job at every depth.
	res.set("service.api.socket_ms", selfMS(tr.ms("service.jobs.submit"), tr.ms("service.api.submit"))+
		selfMS(tr.ms("service.jobs.fetch"), tr.ms("service.api.fetch")))
	res.set("service.api.self_ms", selfMS(tr.ms("service.api.submit"), tr.ms("service.jobs.Submit"))+
		selfMS(tr.ms("service.api.fetch"), tr.ms("service.jobs.Status")))
	res.set("executor.execute_ms", medianOf(tr.ms("executor")))
	res.set("platform.bin_ms", medianOf(tr.ms("platform"))*nOps/float64(bins))
	res.set("store.put_ms", medianOf(tr.ms("store.put")))
	res.set("store.get_ms", medianOf(tr.ms("store.get")))
	res.set("store.list_ms_per_1k", ratio(medianOf(tr.ms("store.list")), float64(listed)/1000))
	res.set("store.errors", float64(storeFails))
	return tr.selfTable(rp.out, []layerRow{
		{"client+socket, whole job", "socket", []string{"service.api"}},
		{"client+socket, submit", "service.jobs.submit", []string{"service.api.submit"}},
		{"client+socket, fetch", "service.jobs.fetch", []string{"service.api.fetch"}},
		{"service.api, submit", "service.api.submit", []string{"service.jobs.Submit"}},
		{"service.api, fetch", "service.api.fetch", []string{"service.jobs.Status"}},
		{"service.jobs+events+store", "service.jobs", []string{"service.jobs.runRun"}},
		{"service.batch+shard (planning)", "service.jobs.runRun", []string{"executor"}},
		{"executor", "executor", []string{"platform"}},
		{"platform", "platform", nil},
		{"store", "store.put", nil},
		{"store", "store.get", nil},
		{"store", "store.list", nil},
	}), nil
}
