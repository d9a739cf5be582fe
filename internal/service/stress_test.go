package service

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/binset"
	"repro/internal/core"
	"repro/internal/opq"
)

// TestStressConcurrentDecompose fires 96 concurrent decompose requests over
// a handful of (menu, threshold) keys through one service and asserts the
// acceptance criteria of the serving layer:
//
//  1. cache coalescing — exactly one opq.Build per distinct key, no matter
//     how many requests race on a cold cache;
//  2. cost fidelity — every sharded, cache-served plan costs exactly what
//     the unsharded OPQ-Based solve of the same instance costs, and is
//     feasible.
//
// Run under -race (CI does) to also certify the subsystem race-clean.
func TestStressConcurrentDecompose(t *testing.T) {
	jelly, err := binset.Jelly(10)
	if err != nil {
		t.Fatal(err)
	}
	menus := []core.BinSet{binset.Table1(), menuB(), jelly}
	thresholds := []float64{0.9, 0.95}

	type key struct {
		menu int
		t    float64
	}
	type workload struct {
		key  key
		in   *core.Instance
		want float64 // unsharded reference cost
	}
	var workloads []workload
	for mi, menu := range menus {
		for _, th := range thresholds {
			for _, n := range []int{37, 500, 2400} {
				in := core.MustHomogeneous(menu, n, th)
				ref, err := (opq.Solver{}).Solve(in)
				if err != nil {
					t.Fatal(err)
				}
				workloads = append(workloads, workload{
					key:  key{menu: mi, t: th},
					in:   in,
					want: ref.MustCost(menu),
				})
			}
		}
	}
	distinctKeys := len(menus) * len(thresholds)

	svc := New(Config{CacheSize: 2 * distinctKeys, Workers: 4})
	const requests = 96 // ≥ 64, and a multiple of the workload count
	var wg sync.WaitGroup
	start := make(chan struct{})
	errs := make([]error, requests)
	for i := 0; i < requests; i++ {
		wl := workloads[i%len(workloads)]
		wg.Add(1)
		go func(i int, wl workload) {
			defer wg.Done()
			<-start // release all requests at once onto the cold cache
			plan, err := svc.DecomposeWith(context.Background(), svc.DefaultSolver(), wl.in)
			if err != nil {
				errs[i] = err
				return
			}
			if err := plan.Validate(wl.in); err != nil {
				errs[i] = err
				return
			}
			if got := plan.MustCost(wl.in.Bins()); got != wl.want {
				t.Errorf("request %d: sharded cost %v != unsharded %v", i, got, wl.want)
			}
		}(i, wl)
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}

	st := svc.Cache().Stats()
	if int(st.Builds) != distinctKeys {
		t.Fatalf("want exactly %d opq.Build calls (one per distinct key), got %d (stats %+v)",
			distinctKeys, st.Builds, st)
	}
	if got := st.Hits + st.Misses + st.Coalesced; got != requests {
		t.Fatalf("cache saw %d lookups, want %d", got, requests)
	}
	if s := svc.Stats(); s.Requests != requests || s.Errors != 0 {
		t.Fatalf("service stats: %+v", s)
	}
}

// TestStressBatchedDecompose is the batching-front-end stress test: many
// goroutines fire mixed same-key and different-key requests at a batching
// service and the test asserts the batcher's three invariants at once:
//
//  1. one flush per key per window — every key's requests coalesce
//     into exactly one batch (the cap equals the per-key request count, so
//     the final join flushes deterministically, never the timer);
//  2. exact cost parity — every batched plan costs precisely what the
//     unbatched OPQ-Based solve of its instance costs;
//  3. no cross-request task leakage — every plan validates against its own
//     instance, i.e. only addresses task ids 0..n-1 of its own request.
//
// Run under -race (CI does) to certify the batcher race-clean.
func TestStressBatchedDecompose(t *testing.T) {
	jelly, err := binset.Jelly(10)
	if err != nil {
		t.Fatal(err)
	}
	menus := []core.BinSet{binset.Table1(), menuB(), jelly}
	thresholds := []float64{0.9, 0.95}
	distinctKeys := len(menus) * len(thresholds)
	const perKey = 16
	sizes := []int{11, 64, 200, 350} // mixed sizes inside every batch

	type workload struct {
		in   *core.Instance
		want float64
	}
	var workloads []workload
	for _, menu := range menus {
		for _, th := range thresholds {
			for r := 0; r < perKey; r++ {
				in := core.MustHomogeneous(menu, sizes[r%len(sizes)], th)
				ref, err := (opq.Solver{}).Solve(in)
				if err != nil {
					t.Fatal(err)
				}
				workloads = append(workloads, workload{in: in, want: ref.MustCost(menu)})
			}
		}
	}

	svc := New(Config{
		Workers:          4,
		CacheSize:        2 * distinctKeys,
		BatchWindow:      time.Minute, // the cap must flush, never the timer
		BatchMaxRequests: perKey,
	})
	defer svc.Close()

	var wg sync.WaitGroup
	start := make(chan struct{})
	errs := make([]error, len(workloads))
	for i, wl := range workloads {
		wg.Add(1)
		go func(i int, wl workload) {
			defer wg.Done()
			<-start
			plan, err := svc.DecomposeWith(context.Background(), svc.DefaultSolver(), wl.in)
			if err != nil {
				errs[i] = err
				return
			}
			if err := plan.Validate(wl.in); err != nil {
				errs[i] = err // out-of-range ids would mark cross-request leakage
				return
			}
			if got := plan.MustCost(wl.in.Bins()); got != wl.want {
				t.Errorf("request %d: batched cost %v != unbatched %v", i, got, wl.want)
			}
		}(i, wl)
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}

	bs := svc.Stats().Batch
	if int(bs.Batches) != distinctKeys {
		t.Fatalf("want one batch per key, got %d batches for %d keys (%+v)",
			bs.Batches, distinctKeys, bs)
	}
	if got := int(bs.BatchedRequests); got != len(workloads) {
		t.Fatalf("batcher served %d requests, want %d", got, len(workloads))
	}
	if bs.WindowTimeouts != 0 {
		t.Fatalf("cap-flushed batches counted %d window timeouts", bs.WindowTimeouts)
	}
	if cs := svc.Cache().Stats(); int(cs.Builds) != distinctKeys {
		t.Fatalf("want one queue build per key, got %d", cs.Builds)
	}
}
