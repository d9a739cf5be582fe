package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"strconv"

	"repro/internal/binset"
	"repro/internal/core"
	"repro/internal/opq"
)

// hotThreshold is the threshold of the one hot menu (jelly20) that five of
// the six workloads share, so its queue is always resident.
const hotThreshold = 0.9

// batchMembers is the instance count of one burst-batch call.
const batchMembers = 64

// sizePool is how many distinct instance sizes warm-small and burst-batch
// use; it bounds the oracle's reference solves.
const sizePool = 256

// expect is the oracle for one instance: what a correct summary reports.
type expect struct {
	n           int
	cost        float64
	uses        int
	assignments int
}

// planRef is the oracle for a plan-bearing response body, computed with
// encoding/json over the materialized uses — not with the streaming
// encoder the service runs.
type planRef struct {
	arrayLen, ndjsonLen int
	arrayCRC, ndjsonCRC uint32
	uses                int
}

// op is one client-visible operation with everything needed to send it,
// check its reply, and replay it layer by layer in the traced run.
type op struct {
	body      []byte
	ndjson    bool    // Accept: application/x-ndjson
	tasks     int     // atomic tasks the op decomposes (batch: all members)
	threshold float64 // of every member
	want      []expect
	plan      *planRef // non-nil when the reply carries the plan
	menu      *menu
	seed      int64 // run jobs: ground-truth seed
	// ins is one instance per member, built by the traced run for the ops
	// it replays in-process. The timed run never builds them: hundreds of
	// n-sized threshold slices would be live heap the service does not
	// have in production, and its collector would run a tenth as often.
	ins []*core.Instance
}

// menu is a bin menu with its wire form and per-cardinality weights.
type menu struct {
	bins    core.BinSet
	json    []byte
	weights map[int]float64
}

func newMenu(bins core.BinSet) (*menu, error) {
	data, err := json.Marshal(bins.Bins())
	if err != nil {
		return nil, err
	}
	m := &menu{bins: bins, json: data, weights: make(map[int]float64)}
	for _, b := range bins.Bins() {
		m.weights[b.Cardinality] = b.Weight()
	}
	return m, nil
}

// oracle solves reference instances directly with opq.Build and
// opq.SolveRunsRange — no cache, batcher, shards or peers in the way.
type oracle struct {
	menu   *menu
	queues map[float64]*opq.Queue
	seen   map[[2]float64]expect // (threshold, n)
}

func newOracle(m *menu) *oracle {
	return &oracle{menu: m, queues: make(map[float64]*opq.Queue), seen: make(map[[2]float64]expect)}
}

func (o *oracle) queue(t float64) (*opq.Queue, error) {
	if q, ok := o.queues[t]; ok {
		return q, nil
	}
	q, err := opq.Build(o.menu.bins, t)
	if err != nil {
		return nil, fmt.Errorf("oracle: building queue at t=%v: %w", t, err)
	}
	o.queues[t] = q
	return q, nil
}

func (o *oracle) plan(t float64, n int) (*core.Plan, error) {
	q, err := o.queue(t)
	if err != nil {
		return nil, err
	}
	pr, err := opq.SolveRunsRange(q, 0, n)
	if err != nil {
		return nil, fmt.Errorf("oracle: solving n=%d at t=%v: %w", n, t, err)
	}
	return core.NewRunPlan(pr), nil
}

// expect returns the reference summary for (t, n). The summed cost must be
// matched bit for bit by the service (sharded, batched and clustered solves
// are pinned cost-exact); opq.PlanCost, which never builds assignments,
// cross-checks the solver's control flow to 1e-9.
func (o *oracle) expect(t float64, n int) (expect, error) {
	key := [2]float64{t, float64(n)}
	if e, ok := o.seen[key]; ok {
		return e, nil
	}
	plan, err := o.plan(t, n)
	if err != nil {
		return expect{}, err
	}
	sum, err := plan.Summarize(o.menu.bins)
	if err != nil {
		return expect{}, err
	}
	predicted, err := opq.PlanCost(o.queues[t], n)
	if err != nil {
		return expect{}, err
	}
	if math.Abs(predicted-sum.Cost) > 1e-9*sum.Cost {
		return expect{}, fmt.Errorf("oracle: n=%d t=%v: opq.PlanCost %v disagrees with the solved plan's cost %v", n, t, predicted, sum.Cost)
	}
	e := expect{n: n, cost: sum.Cost, uses: sum.NumUses, assignments: sum.NumAssignments}
	o.seen[key] = e
	return e, nil
}

// planRef encodes the reference plan with the standard library and keeps
// only length and CRC-32 of each wire form, so checking a multi-megabyte
// reply costs one pass over its bytes.
func (o *oracle) planRef(t float64, n int) (*planRef, error) {
	plan, err := o.plan(t, n)
	if err != nil {
		return nil, err
	}
	uses := plan.Materialized()
	array, err := json.Marshal(uses)
	if err != nil {
		return nil, err
	}
	ref := &planRef{arrayLen: len(array), arrayCRC: crc32.ChecksumIEEE(array), uses: len(uses)}
	var cw countWriter
	if err := plan.EncodeJSON(&cw); err != nil {
		return nil, err
	}
	if want := len(array) + len(`{"uses":}`); cw.n != want {
		return nil, fmt.Errorf("oracle: Plan.EncodeJSON wrote %d bytes, json.Marshal of the uses implies %d", cw.n, want)
	}
	h := crc32.NewIEEE()
	for i := range uses {
		line, err := json.Marshal(uses[i])
		if err != nil {
			return nil, err
		}
		h.Write(line)
		h.Write([]byte{'\n'})
		ref.ndjsonLen += len(line) + 1
	}
	ref.ndjsonCRC = h.Sum32()
	return ref, nil
}

type countWriter struct{ n int }

func (c *countWriter) Write(p []byte) (int, error) { c.n += len(p); return len(p), nil }

func formatFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// instanceBody renders a POST /v1/decompose (or job) body.
func instanceBody(m *menu, n int, t float64, extra string) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, `{"bins":%s,"n":%d,"threshold":%s%s}`, m.json, n, formatFloat(t), extra)
	return b.Bytes()
}

// genOps builds one round's op list for the workload. The seed is the only
// source of sizes, thresholds, op order and per-job seeds; scale shrinks
// the op count (the smoke test runs at 2 %), never the instance sizes.
func genOps(w *workload, seed int64, scale float64) ([]*op, error) {
	count := max(2, int(math.Round(float64(w.roundOps)*scale)))
	rng := rand.New(rand.NewSource(seed*1000003 + int64(len(w.name))*7919 + int64(w.roundOps)))
	bins := binset.MustJelly(20)
	if w.name == "cold-menu" {
		bins = binset.MustSMIC(20)
	}
	m, err := newMenu(bins)
	if err != nil {
		return nil, err
	}
	or := newOracle(m)
	// The size pool is one draw per cell of a 256-cell grid over [1000,
	// 21000): every seed gives different sizes but, to a part in a
	// thousand, the same total work. nextSize deals the pool out in
	// shuffled passes, so each size is used equally often.
	sizes := make([]int, sizePool)
	for i := range sizes {
		sizes[i] = 1000 + (20000*i+rng.Intn(20000))/sizePool
	}
	dealt := 0
	nextSize := func() int {
		if dealt%sizePool == 0 {
			rng.Shuffle(sizePool, func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
		}
		dealt++
		return sizes[(dealt-1)%sizePool]
	}
	ops := make([]*op, 0, count)
	if w.kind == opBatch {
		for i := 0; i < count; i++ {
			o := &op{menu: m, threshold: hotThreshold}
			var b bytes.Buffer
			fmt.Fprintf(&b, `{"bins":%s,"instances":[`, m.json)
			for j := 0; j < batchMembers; j++ {
				n := nextSize()
				e, err := or.expect(hotThreshold, n)
				if err != nil {
					return nil, err
				}
				if j > 0 {
					b.WriteByte(',')
				}
				fmt.Fprintf(&b, `{"n":%d,"threshold":%s}`, n, formatFloat(hotThreshold))
				o.want = append(o.want, e)
				o.tasks += n
			}
			b.WriteString("]}")
			o.body = b.Bytes()
			ops = append(ops, o)
		}
		return ops, nil
	}
	var ref *planRef
	if w.name == "big-plan" {
		if ref, err = or.planRef(hotThreshold, w.n); err != nil {
			return nil, err
		}
	}
	for i := 0; i < count; i++ {
		n, t, extra, jobSeed := w.n, hotThreshold, "", int64(0)
		switch w.name {
		case "warm-small":
			n = nextSize()
		case "cold-menu":
			// One threshold per op, jittered inside its own cell of
			// [0.99, 0.999] so all are distinct.
			t = 0.99 + 0.009*(float64(i)+rng.Float64())/float64(count)
		case "big-plan":
			extra = `,"include_plan":true`
		case "jobs-durable":
			jobSeed = rng.Int63n(1 << 40)
			extra = fmt.Sprintf(`,"kind":"run","run":{"platform_kind":"remote","seed":%d}`, jobSeed)
		}
		e, err := or.expect(t, n)
		if err != nil {
			return nil, err
		}
		ops = append(ops, &op{
			body: instanceBody(m, n, t, extra), tasks: n, threshold: t, want: []expect{e}, menu: m,
			plan: ref, ndjson: ref != nil && i%2 == 0, seed: jobSeed,
		})
	}
	if w.name == "cold-menu" {
		// Shuffled so cheap and dear builds interleave. Replayed in the
		// same order every round, a working set two and a half times the cache never
		// hits under LRU, two clients' reordering included.
		rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	}
	return ops, nil
}
