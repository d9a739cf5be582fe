package service

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/binset"
	"repro/internal/core"
)

// TestRunJobPoolDeterministicAcrossGOMAXPROCS pins the pooled run path's
// seed determinism under varying parallelism: the same platform seed must
// yield an identical ExecutionReport whether the crowdsim pool runner is
// scheduled on one core or many — worker assignment and answer streams
// derive from the seed, never from goroutine interleaving. Under -race
// this doubles as a race probe of the pool's concurrent answer path.
func TestRunJobPoolDeterministicAcrossGOMAXPROCS(t *testing.T) {
	runOnce := func(procs int) *ExecutionReport {
		t.Helper()
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		svc := New(Config{CacheSize: 8, Workers: 4, Logger: quietLogger()})
		defer svc.Close()
		req := runJellyRequest(t, 240, 0.9, 11)
		req.Run.Platform.PoolSize = 80
		req.Run.Platform.SpammerFraction = 0.2
		req.Run.Platform.SkillSigma = 0.1
		id, err := svc.Jobs().Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		st := waitTerminal(t, svc, id)
		if st.State != JobDone {
			t.Fatalf("GOMAXPROCS=%d: settled %s: %s", procs, st.State, st.Error)
		}
		return st.Report
	}

	base := runOnce(1)
	if base.Tasks != 240 || base.BinsIssued == 0 {
		t.Fatalf("implausible baseline report: %+v", base)
	}
	procsList := []int{2, 4}
	if n := runtime.NumCPU(); n > 4 {
		procsList = append(procsList, n)
	}
	for _, procs := range procsList {
		if got := runOnce(procs); !reflect.DeepEqual(base, got) {
			t.Fatalf("GOMAXPROCS=%d diverged from the single-core report:\n got %+v\nwant %+v", procs, got, base)
		}
	}
}

// TestSolveDeterministicAcrossGOMAXPROCS pins the default route's
// determinism under varying parallelism, batching on: at GOMAXPROCS 1, 2
// and 4 it serves the same use sequence and the same cost bits as a
// service of its own with batching off.
func TestSolveDeterministicAcrossGOMAXPROCS(t *testing.T) {
	ref := New(Config{Workers: 2, Logger: quietLogger()})
	defer ref.Close()
	svc := New(Config{Workers: 2, BatchWindow: DefaultBatchWindow, Logger: quietLogger()})
	defer svc.Close()

	in, err := core.NewHomogeneous(binset.Table1(), 30*6+5, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	basePlan, baseSum, err := ref.DecomposeSummarized(context.Background(), DefaultSolverName, in)
	if err != nil {
		t.Fatal(err)
	}
	baseUses := basePlan.Materialized()
	for _, procs := range []int{1, 2, 4} {
		prev := runtime.GOMAXPROCS(procs)
		plan, sum, err := svc.DecomposeSummarized(context.Background(), DefaultSolverName, in)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		if sum.Cost != baseSum.Cost {
			t.Fatalf("GOMAXPROCS=%d: cost %v, unbatched %v", procs, sum.Cost, baseSum.Cost)
		}
		if !reflect.DeepEqual(plan.Materialized(), baseUses) {
			t.Fatalf("GOMAXPROCS=%d: use sequence diverged from the unbatched service's", procs)
		}
	}
}
