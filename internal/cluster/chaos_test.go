package cluster_test

import (
	"context"
	"io"
	"log"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/binset"
	"repro/internal/cluster/testcluster"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/opq"
	"repro/internal/scenario"
	"repro/internal/service"
)

func quiet() *log.Logger { return log.New(io.Discard, "", 0) }

// TestClusterChaosShortMatrixParity is the acceptance test of the whole
// distribution layer: a 3-node cluster serves the ShortMatrix scenario
// workload while one peer is killed mid-flight and later revived, and a
// second peer drops, 500s, and truncates a quarter of everything it
// touches. Every request must still succeed, and every plan must cost
// exactly — bit for bit — what a single-node solve of the same instance
// costs: fault handling may only move work, never change answers.
func TestClusterChaosShortMatrixParity(t *testing.T) {
	tc, err := testcluster.Start(testcluster.Options{Nodes: 3, Seed: 7, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()

	ref := service.New(service.Config{Workers: 2, Logger: quiet()})
	defer ref.Close()

	m := scenario.ShortMatrix(1)
	type job struct {
		cell string
		idx  int
		in   *core.Instance
	}
	var jobs []job
	for _, cell := range m.Cells {
		ins, err := cell.Instances(scenario.DeriveSeed(m.Seed, cell.Name()))
		if err != nil {
			t.Fatalf("cell %s: %v", cell.Name(), err)
		}
		for i, in := range ins {
			jobs = append(jobs, job{cell: cell.Name(), idx: i, in: in})
		}
	}
	if len(jobs) < 12 {
		t.Fatalf("implausibly small workload: %d jobs", len(jobs))
	}

	// The flaky peer stays flaky for the entire run; the kill/revive cycle
	// happens to a different peer so the two failure modes compose.
	flaky, victim := tc.Node(2).URL, tc.Node(1).URL
	tc.Faults.Set(flaky, faultinject.Faults{DropProb: 0.25, FailProb: 0.25, TruncateProb: 0.25})

	entry := tc.Node(0).Service
	solveAll := func(js []job, tag string) {
		t.Helper()
		var wg sync.WaitGroup
		errs := make([]error, len(js))
		costs := make([]float64, len(js))
		for i, j := range js {
			wg.Add(1)
			go func(i int, j job) {
				defer wg.Done()
				_, sum, err := entry.DecomposeSummarized(context.Background(), entry.DefaultSolver(), j.in)
				errs[i], costs[i] = err, sum.Cost
			}(i, j)
		}
		wg.Wait()
		for i, j := range js {
			if errs[i] != nil {
				t.Fatalf("%s: job %s/%d failed: %v", tag, j.cell, j.idx, errs[i])
			}
			_, want, err := ref.DecomposeSummarized(context.Background(), service.DefaultSolverName, j.in)
			if err != nil {
				t.Fatalf("%s: reference solve %s/%d: %v", tag, j.cell, j.idx, err)
			}
			if costs[i] != want.Cost {
				t.Fatalf("%s: job %s/%d cost %v, single-node cost %v — clustered solve changed the answer",
					tag, j.cell, j.idx, costs[i], want.Cost)
			}
		}
	}

	third := len(jobs) / 3
	// Phase 1: all nodes healthy (modulo the flaky peer).
	solveAll(jobs[:third], "healthy")

	// Phase 2: kill the victim while its share of the traffic is already
	// in flight — retries exhaust against a dead address and every one of
	// its spans must fall back locally.
	var phase2 sync.WaitGroup
	phase2.Add(1)
	go func() {
		defer phase2.Done()
		solveAll(jobs[third:2*third], "victim down")
	}()
	time.Sleep(2 * time.Millisecond) // let some phase-2 requests take off first
	tc.Faults.Kill(victim)
	phase2.Wait()

	// Phase 3: revive and let breaker probes re-admit the peer.
	tc.Faults.Revive(victim)
	time.Sleep(150 * time.Millisecond) // testcluster cooldown is 100ms
	solveAll(jobs[2*third:], "revived")

	st := entry.Stats()
	if st.Cluster == nil {
		t.Fatal("clustered service reports no cluster stats block")
	}
	if st.Cluster.SpansRemote == 0 {
		t.Fatalf("no spans solved remotely: %+v", *st.Cluster)
	}
	if st.Cluster.Fallbacks == 0 {
		t.Fatalf("killed peer produced no local fallbacks: %+v", *st.Cluster)
	}
	h := entry.Health()
	if h.Status != "ok" {
		t.Fatalf("degraded peers must not fail the node's health: %+v", h)
	}
	if h.Cluster == nil || len(h.Cluster.Peers) != 2 {
		t.Fatalf("health cluster block: %+v", h.Cluster)
	}
}

// TestClusterSolveDeterministic pins clustered byte-determinism along the
// two axes fault tolerance could plausibly break it: scheduler
// parallelism (GOMAXPROCS 1/2/4) and peer response arrival order (each
// peer delayed in turn). The merged plan must be identical — use
// sequence and cost bits — in every configuration, because spans merge
// by index, never by arrival.
func TestClusterSolveDeterministic(t *testing.T) {
	tc, err := testcluster.Start(testcluster.Options{Nodes: 3, Seed: 3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()

	bins := binset.Table1()
	q, err := opq.Build(bins, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	L := int(q.Elems[0].LCM)
	in, err := core.NewHomogeneous(bins, L*30+5, 0.95)
	if err != nil {
		t.Fatal(err)
	}

	entry := tc.Node(0).Service
	solve := func(tag string) ([]core.BinUse, float64) {
		t.Helper()
		plan, sum, err := entry.DecomposeSummarized(context.Background(), service.ClusterSolverName, in)
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		return plan.Materialized(), sum.Cost
	}

	baseUses, baseCost := solve("baseline")
	check := func(tag string) {
		t.Helper()
		uses, cost := solve(tag)
		if cost != baseCost {
			t.Fatalf("%s: cost %v, baseline %v", tag, cost, baseCost)
		}
		if !reflect.DeepEqual(uses, baseUses) {
			t.Fatalf("%s: use sequence diverged from baseline", tag)
		}
	}

	for _, procs := range []int{1, 2, 4} {
		prev := runtime.GOMAXPROCS(procs)
		check("GOMAXPROCS=" + string(rune('0'+procs)))
		runtime.GOMAXPROCS(prev)
	}

	// Arrival order: delaying one peer at a time reverses which span
	// finishes first; the merge must not care.
	for i := 1; i <= 2; i++ {
		tc.Faults.Set(tc.Node(i).URL, faultinject.Faults{Delay: 30 * time.Millisecond})
		check("delayed peer " + tc.Node(i).URL)
		tc.Faults.Set(tc.Node(i).URL, faultinject.Faults{})
	}
}
