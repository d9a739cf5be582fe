package service_test

import (
	"context"
	"io"
	"log"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/service"
)

// TestShortMatrixConcurrentParity serves the ShortMatrix scenario
// workload with every instance in flight at once on one service, batching
// on: every solve must succeed and every plan must cost exactly — bit for
// bit — what a solo solve of the same instance costs on a service of its
// own. It is an external test because scenario imports service.
func TestShortMatrixConcurrentParity(t *testing.T) {
	quiet := log.New(io.Discard, "", 0)
	svc := service.New(service.Config{Workers: 2, BatchWindow: service.DefaultBatchWindow, Logger: quiet})
	defer svc.Close()
	ref := service.New(service.Config{Workers: 2, Logger: quiet})
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
	if len(m.Cells) != 12 || len(jobs) < 12 {
		t.Fatalf("implausibly small workload: %d cells, %d instances", len(m.Cells), len(jobs))
	}

	var wg sync.WaitGroup
	errs := make([]error, len(jobs))
	costs := make([]float64, len(jobs))
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, j job) {
			defer wg.Done()
			_, sum, err := svc.DecomposeSummarized(context.Background(), service.DefaultSolverName, j.in)
			errs[i], costs[i] = err, sum.Cost
		}(i, j)
	}
	wg.Wait()
	for i, j := range jobs {
		if errs[i] != nil {
			t.Fatalf("instance %s/%d failed: %v", j.cell, j.idx, errs[i])
		}
		_, want, err := ref.DecomposeSummarized(context.Background(), service.DefaultSolverName, j.in)
		if err != nil {
			t.Fatalf("solo solve %s/%d: %v", j.cell, j.idx, err)
		}
		if costs[i] != want.Cost {
			t.Fatalf("instance %s/%d cost %v concurrently, %v solo", j.cell, j.idx, costs[i], want.Cost)
		}
	}
}
