package scenario

import (
	"bytes"
	"context"
	"io"
	"log/slog"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/distgen"
	"repro/internal/hetero"
	"repro/internal/opq"
	"repro/internal/service"
)

// FuzzScenarioCostParity drives the serving layer's two exact-parity
// invariants with scenario-shaped workloads instead of hand-picked ones:
// menus, thresholds and arrival-size mixes come from the lab's generators
// (GenMenu / GenThreshold / GenArrivalSizes), and for every drawn workload
//
//   - the service's cached solve must encode to exactly the bytes of the
//     library reference (opq.Solver / hetero.Solve), homogeneous and
//     heterogeneous alike, and
//   - plans delivered through the request batcher must cost exactly what
//     a solo solve of the same instance costs.
//
// Everything derives from the one fuzzed seed, so failures replay.
func FuzzScenarioCostParity(f *testing.F) {
	for _, seed := range []int64{0, 1, 2, 7, 42, 1234, -9} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		menu := GenMenu(rng)
		thr := GenThreshold(rng)
		sizes := GenArrivalSizes(rng, 1+rng.Intn(5), 1+rng.Intn(200))

		sameBytes := func(got, ref *core.Plan) bool {
			var g, r bytes.Buffer
			if err := got.EncodeJSON(&g); err != nil {
				t.Fatal(err)
			}
			if err := ref.EncodeJSON(&r); err != nil {
				t.Fatal(err)
			}
			return bytes.Equal(g.Bytes(), r.Bytes())
		}

		// Service == library on every homogeneous request of the mix.
		sharded := &service.ShardedSolver{Cache: service.NewOPQCache(8)}
		for _, n := range sizes {
			in, err := core.NewHomogeneous(menu, n, thr)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := (opq.Solver{}).Solve(in)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sharded.Solve(in)
			if err != nil {
				t.Fatal(err)
			}
			if err := got.Validate(in); err != nil {
				t.Fatalf("n=%d: invalid service plan: %v", n, err)
			}
			if !sameBytes(got, ref) {
				t.Fatalf("n=%d: service plan bytes differ from opq.Solver's", n)
			}
		}

		// Service == library on a heterogeneous instance with the lab's
		// heavy-tailed demand shape (the Algorithm-4 partition path).
		hi := thr
		if hi <= 0.5 {
			hi = 0.55
		}
		hn := 1 + rng.Intn(300)
		ts, err := distgen.HeavyTailed(hn, 1.5, 0.05,
			distgen.Bounds{Lo: 0.45, Hi: hi}, DeriveSeed(seed, "fuzz/thr"))
		if err != nil {
			t.Fatal(err)
		}
		hin, err := core.NewHeterogeneous(menu, ts)
		if err != nil {
			t.Fatal(err)
		}
		href, err := hetero.Solve(hin)
		if err != nil {
			t.Fatal(err)
		}
		hgot, err := sharded.Solve(hin)
		if err != nil {
			t.Fatal(err)
		}
		if err := hgot.Validate(hin); err != nil {
			t.Fatalf("heterogeneous n=%d: invalid service plan: %v", hn, err)
		}
		if !sameBytes(hgot, href) {
			t.Fatalf("heterogeneous n=%d: service plan bytes differ from hetero.Solve's", hn)
		}

		// Batched == solo: the whole mix coalesced into one flush,
		// each caller's delivered plan priced exactly like its solo solve.
		// The cap (not the window) flushes, keeping the batch composition
		// deterministic.
		svc := service.New(service.Config{
			Workers:          4,
			BatchWindow:      time.Minute,
			BatchMaxRequests: len(sizes),
			Slog:             slog.New(slog.NewTextHandler(io.Discard, nil)),
		})
		defer svc.Close()
		plans := make([]*core.Plan, len(sizes))
		errs := make([]error, len(sizes))
		var wg sync.WaitGroup
		for i, n := range sizes {
			in, err := core.NewHomogeneous(menu, n, thr)
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func(i int, in *core.Instance) {
				defer wg.Done()
				plans[i], _, errs[i] = svc.DecomposeSummarized(context.Background(), service.DefaultSolverName, in)
			}(i, in)
		}
		wg.Wait()
		for i, n := range sizes {
			if errs[i] != nil {
				t.Fatalf("batched request %d: %v", i, errs[i])
			}
			in, err := core.NewHomogeneous(menu, n, thr)
			if err != nil {
				t.Fatal(err)
			}
			if err := plans[i].Validate(in); err != nil {
				t.Fatalf("batched request %d: invalid plan: %v", i, err)
			}
			ref, err := (opq.Solver{}).Solve(in)
			if err != nil {
				t.Fatal(err)
			}
			if gc, rc := plans[i].MustCost(menu), ref.MustCost(menu); gc != rc {
				t.Fatalf("batched request %d (n=%d): cost %v != solo %v", i, n, gc, rc)
			}
		}
	})
}
