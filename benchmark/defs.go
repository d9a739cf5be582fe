package main

import "runtime"

// metricDef names one reported metric. BENCHMARK.json repeats these tables;
// TestBenchmarkJSONMatchesDefs keeps the two in step.
type metricDef struct {
	name, unit, better string
	// bound is the share of the baseline median by which an end-to-end
	// metric may get worse before it counts as a regression; per-layer
	// metrics have none.
	bound float64
	// exact marks a metric that repeats bit for bit for a given seed:
	// -repeat allows it no spread at all. Its bound only has to cover the
	// difference between seeds, which is what the acceptance driver
	// compares.
	exact bool
}

// endToEnd lists what a requester sees, on every workload. fail_ratio is
// printed with them but is not in the table: it is 0 on every run, and a
// metric that is always 0 has no relative spread or bound; the result
// line's failed and attempted carry it.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "ops_per_s", unit: "op/s", better: "higher", bound: 0.25},
	{name: "lat_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "cost_per_task", unit: "USD/task", better: "lower", bound: 0.001, exact: true},
	{name: "alloc_kb_per_op", unit: "KiB/op", better: "lower", bound: 0.08},
	{name: "covered_ratio", unit: "ratio", better: "higher", bound: 0.001, exact: true},
}

// perLayer lists the single-layer metrics of the traced run; a layer the
// workload bypasses reports 0.
var perLayer = []metricDef{
	{name: "client.lat_p95_ms", unit: "ms", better: "lower"},
	{name: "client.lat_p99_ms", unit: "ms", better: "lower"},
	{name: "client.lat_max_ms", unit: "ms", better: "lower"},
	{name: "client.sent", unit: "count", better: "higher"},
	{name: "client.ok", unit: "count", better: "higher"},
	{name: "client.failed", unit: "count", better: "lower"},
	{name: "client.bytes_in_per_op", unit: "B/op", better: "lower"},
	{name: "client.trace_overhead_ratio", unit: "ratio", better: "lower"},
	{name: "service.api.self_ms", unit: "ms", better: "lower"},
	{name: "service.api.socket_ms", unit: "ms", better: "lower"},
	{name: "service.api.allocs_per_op", unit: "count/op", better: "lower"},
	{name: "service.api.http_4xx", unit: "count", better: "lower"},
	{name: "service.api.http_5xx", unit: "count", better: "lower"},
	{name: "service.batch.wait_ms", unit: "ms", better: "lower"},
	{name: "service.batch.mean_size", unit: "req/batch", better: "higher"},
	{name: "service.batch.batches", unit: "count", better: "lower"},
	{name: "service.batch.window_timeout_ratio", unit: "ratio", better: "lower"},
	{name: "service.cache.get_hit_us", unit: "us", better: "lower"},
	{name: "service.cache.hit_ratio", unit: "ratio", better: "higher"},
	{name: "service.cache.builds", unit: "count", better: "lower"},
	{name: "service.cache.evictions", unit: "count", better: "lower"},
	{name: "service.cache.coalesced", unit: "count", better: "higher"},
	{name: "opq.build_ms", unit: "ms", better: "lower"},
	{name: "opq.solve_us", unit: "us", better: "lower"},
	{name: "opq.solve_allocs_per_op", unit: "count/op", better: "lower"},
	{name: "service.shard.solve_ms", unit: "ms", better: "lower"},
	{name: "service.shard.queue_wait_p95_ms", unit: "ms", better: "lower"},
	{name: "core.encode_stream_ms", unit: "ms", better: "lower"},
	{name: "core.encode_marshal_ms", unit: "ms", better: "lower"},
	{name: "core.encode_mb_per_s", unit: "MB/s", better: "higher"},
	{name: "core.encode_alloc_kb", unit: "KiB/op", better: "lower"},
	{name: "cluster.hop_ms", unit: "ms", better: "lower"},
	{name: "cluster.peer_p50_ms", unit: "ms", better: "lower"},
	{name: "cluster.spans_per_op", unit: "count/op", better: "lower"},
	{name: "cluster.retries", unit: "count", better: "lower"},
	{name: "cluster.fallbacks", unit: "count", better: "lower"},
	{name: "cluster.breaker_opens", unit: "count", better: "lower"},
	{name: "service.jobs.submit_ms", unit: "ms", better: "lower"},
	{name: "service.jobs.run_ms", unit: "ms", better: "lower"},
	{name: "service.jobs.fetch_ms", unit: "ms", better: "lower"},
	{name: "service.jobs.persisted", unit: "count", better: "higher"},
	{name: "service.events.first_frame_ms", unit: "ms", better: "lower"},
	{name: "service.events.frames_per_job", unit: "count/op", better: "lower"},
	{name: "executor.execute_ms", unit: "ms", better: "lower"},
	{name: "executor.bins_per_op", unit: "count/op", better: "lower"},
	{name: "executor.top_up_rounds", unit: "count", better: "lower"},
	{name: "executor.retries", unit: "count", better: "lower"},
	{name: "platform.bin_ms", unit: "ms", better: "lower"},
	{name: "platform.requests_per_op", unit: "count/op", better: "lower"},
	{name: "platform.retries", unit: "count", better: "lower"},
	{name: "platform.replays", unit: "count", better: "lower"},
	{name: "platform.charged_minus_spent", unit: "USD", better: "lower"},
	{name: "store.put_ms", unit: "ms", better: "lower"},
	{name: "store.get_ms", unit: "ms", better: "lower"},
	{name: "store.list_ms_per_1k", unit: "ms", better: "lower"},
	{name: "store.errors", unit: "count", better: "lower"},
}

// opKind is the route family a workload drives.
type opKind int

const (
	opDecompose opKind = iota // POST /v1/decompose
	opBatch                   // POST /v1/decompose/batch
	opJob                     // POST /v1/jobs, events stream, GET /v1/jobs/{id}
)

// workload fixes one traffic mix. Sizes are constants, not flags: every
// round of every run replays the same seeded op list, which is what keeps
// same-code runs within a few percent of each other.
type workload struct {
	name, why string
	kind      opKind
	// oneClient marks the workloads with three HTTP parties in this one
	// process (entry node + peers, or service + marketplace): a second
	// client makes their timings swing 13-20 % on two cores.
	oneClient bool
	// roundOps is the op count of one round, sized for about 1.3 s on the
	// reference machine: ten rounds fill BENCHMARK.json's run_seconds.
	roundOps int
	// traceOps is how many ops the traced run replays at each depth.
	traceOps int
	// n is the instance size (warm-small and burst-batch draw theirs).
	n int
}

var workloads = []workload{
	{
		name: "warm-small", kind: opDecompose, roundOps: 1024, traceOps: 200,
		why: "sparse same-menu summaries: cache always hits, so service.api and the batcher's 2 ms lone-request window are the latency",
	},
	{
		name: "burst-batch", kind: opBatch, roundOps: 280, traceOps: 50,
		why: "64-instance batch calls on one hot menu: the only route by which two connections make the batcher coalesce and share solves",
	},
	{
		name: "cold-menu", kind: opDecompose, roundOps: 320, traceOps: 200, n: 5000,
		why: "320 distinct thresholds swept over a 128-entry cache: every request misses, so opq.Build dominates",
	},
	{
		name: "big-plan", kind: opDecompose, roundOps: 150, traceOps: 50, n: 300000,
		why: "n=300000 with the full plan, NDJSON and JSON alternating: shard split/merge and plan encoding dominate",
	},
	{
		name: "cluster-fanout", kind: opDecompose, oneClient: true, roundOps: 52, traceOps: 50, n: 100000,
		why: "n=100000 through node 0 of a 3-node cluster with production defaults: the JSON peer hop is most of the op",
	},
	{
		name: "jobs-durable", kind: opJob, oneClient: true, roundOps: 72, traceOps: 50, n: 2000,
		why: "run jobs against the remote marketplace on an FS store, followed over SSE: jobs, events, executor, platform and store writes",
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// clients is the closed-loop client count: each client sends its next
// request only after the previous reply is fully read and checked.
func (w *workload) clients() int {
	if w.oneClient {
		return 1
	}
	return min(2, runtime.NumCPU())
}
