package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// maxFailuresPrinted bounds the failure lines of one run.
const maxFailuresPrinted = 10

// round is the record of one pass over the op list.
type round struct {
	dur      time.Duration
	outcomes []outcome // indexed by op id
}

func (r *round) opsPerSec() float64 { return float64(len(r.outcomes)) / r.dur.Seconds() }

func (r *round) latencies() []float64 {
	ms := make([]float64, len(r.outcomes))
	for i, o := range r.outcomes {
		ms[i] = float64(o.lat) / float64(time.Millisecond)
	}
	return ms
}

// runRound replays ops once with the given number of closed-loop clients,
// which take ops in list order from a shared cursor. onDone, when non-nil,
// sees each op's id and start time as it completes (the traced run's
// client spans).
func runRound(st *stack, w *workload, ops []*op, clients int, onDone func(id int, start time.Time, out *outcome)) round {
	r := round{outcomes: make([]outcome, len(ops))}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wk := &worker{st: st}
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				opStart := time.Now()
				r.outcomes[i] = wk.run(w.kind, ops[i])
				if onDone != nil {
					onDone(i, opStart, &r.outcomes[i])
				}
			}
		}()
	}
	wg.Wait()
	r.dur = time.Since(start)
	return r
}

// tally accumulates the outcomes of client ops over rounds.
type tally struct {
	attempted, failed int
	bytesIn           int
	printed           int
	errw              io.Writer
}

// round runs one round and folds it into the tally, printing failures with
// their op id, and returns the round with its cost per task (over the ops
// that passed) and its covered ratio (over all ops: a failed op covers
// none of its tasks). For run jobs — one client, so jobs never overlap —
// it also reconciles the round's reported spend with the marketplace's own
// ledger: a difference is a double-paid or unpaid bin.
func (t *tally) round(label string, st *stack, w *workload, ops []*op, clients int, onDone func(int, time.Time, *outcome)) (r round, costPerTask, coveredRatio float64) {
	charged := 0.0
	if st.market != nil {
		charged = st.market.Charged()
	}
	r = runRound(st, w, ops, clients, onDone)
	var cost float64
	var asked, answered, covered int
	for id := range r.outcomes {
		o := &r.outcomes[id]
		t.attempted++
		t.bytesIn += o.bytesIn
		asked += ops[id].tasks
		if o.err != nil {
			t.fail(fmt.Sprintf("%s op %d: %v", label, id, o.err))
			continue
		}
		cost += o.cost
		answered += ops[id].tasks
		covered += o.covered
	}
	if st.market != nil {
		if charged = st.market.Charged() - charged; math.Abs(charged-cost) > 1e-9*math.Max(cost, 1) {
			t.fail(fmt.Sprintf("%s: jobs report %.6f spent, marketplace charged %.6f", label, cost, charged))
		}
	}
	return r, ratio(cost, float64(answered)), ratio(float64(covered), float64(asked))
}

func (t *tally) fail(msg string) {
	t.failed++
	if t.printed < maxFailuresPrinted {
		t.printed++
		fmt.Fprintln(t.errw, "FAIL", msg)
	}
}

// setUps is how many times a timed run sets up; setup_s is their median,
// so one set-up that met a slow second does not decide it.
const setUps = 3

// setUp does everything that precedes the first measured op: generate the
// round's op list from the seed and solve the oracle, boot the stack (on
// jobs-durable: write the seed records, reopen the store and let the
// service replay them), and run the discarded warm-up round, after which
// caches are full, connections open and the heap at its working size. Its
// duration is one setup_s sample. A warm-up that fails a check aborts the
// run.
func setUp(cfg *config, w *workload) (*stack, []*op, time.Duration, error) {
	start := time.Now()
	ops, err := genOps(w, cfg.seed, cfg.scale)
	if err != nil {
		return nil, nil, 0, err
	}
	st, err := boot(w, cfg.seed, cfg.outDir, cfg.scale)
	if err != nil {
		return nil, nil, 0, err
	}
	warm := tally{errw: cfg.stderr}
	warm.round("warm-up", st, w, ops, w.clients(), nil)
	if warm.failed > 0 {
		st.close()
		return nil, nil, 0, fmt.Errorf("%d of %d warm-up ops failed", warm.failed, warm.attempted)
	}
	return st, ops, time.Since(start), nil
}

// minRounds is the fewest rounds a run measures, however short --seconds.
const minRounds = 2

// timedRun measures the end-to-end metrics: setUps set-ups (the last one's
// stack is kept), then whole rounds of the workload's fixed op list until
// cfg.seconds have been measured. Every round is the same ops in the same
// order, so the per-round values differ only by the machine; each metric
// is the median over the rounds.
func timedRun(cfg *config, w *workload) (*result, error) {
	t := &tally{errw: cfg.stderr}
	var st *stack
	var ops []*op
	setups := make([]float64, 0, setUps)
	for i := 0; i < setUps; i++ {
		if st != nil {
			st.close()
		}
		var d time.Duration
		var err error
		if st, ops, d, err = setUp(cfg, w); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	defer st.close()

	var rate, p50, costs, covered []float64
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	measureStart := time.Now()
	for n := 0; n < minRounds || time.Since(measureStart).Seconds() < cfg.seconds; n++ {
		r, c, cov := t.round(fmt.Sprintf("round %d", n+1), st, w, ops, w.clients(), nil)
		rate = append(rate, r.opsPerSec())
		p50 = append(p50, median(r.latencies()))
		costs = append(costs, c)
		covered = append(covered, cov)
	}
	runtime.ReadMemStats(&after)

	res := newResult(t)
	res.set("setup_s", median(setups))
	res.set("ops_per_s", median(rate))
	res.set("lat_p50_ms", median(p50))
	res.set("cost_per_task", median(costs))
	res.set("alloc_kb_per_op", float64(after.TotalAlloc-before.TotalAlloc)/1024/float64(t.attempted))
	res.set("covered_ratio", median(covered))
	fmt.Fprintf(cfg.stdout, "rounds=%d ops_per_round=%d measured_s=%.2f\nset-ups, s: %.3f\nrounds, op/s: %.1f\nrounds, p50 ms: %.3f\n",
		len(rate), len(ops), time.Since(measureStart).Seconds(), setups, rate, p50)
	return res, nil
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile interpolates linearly between order statistics; v is not
// modified. It returns 0 for an empty slice.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}
