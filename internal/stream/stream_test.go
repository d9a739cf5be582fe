package stream

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/binset"
	"repro/internal/core"
	"repro/internal/opq"
)

func table1() core.BinSet { return binset.Table1() }

func TestBlockSizeIsOPQ1LCM(t *testing.T) {
	p, err := NewPlanner(table1(), 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if p.BlockSize() != 3 { // Table 3: OPQ1 = {2×b3}, LCM 3
		t.Errorf("BlockSize = %d, want 3", p.BlockSize())
	}
}

func TestAddEmitsFullBlocksOnly(t *testing.T) {
	p, err := NewPlanner(table1(), 0.95)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := p.Add(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumUses() != 0 || p.Pending() != 2 {
		t.Errorf("2 tasks should stay buffered: uses=%d pending=%d", plan.NumUses(), p.Pending())
	}
	plan, err = p.Add(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	// One full block (tasks 0,1,2) emitted as 2×b3; task 3 pending.
	if plan.NumUses() != 2 || p.Pending() != 1 {
		t.Errorf("uses=%d pending=%d, want 2/1", plan.NumUses(), p.Pending())
	}
	if cost := plan.MustCost(table1()); math.Abs(cost-0.48) > 1e-9 {
		t.Errorf("block cost = %v, want 0.48", cost)
	}
}

// TestStreamMatchesOneShot is the core property: however the stream is
// sliced into batches, the total streamed cost equals the one-shot
// Algorithm-3 cost for the same task count.
func TestStreamMatchesOneShot(t *testing.T) {
	menus := map[string]core.BinSet{
		"table1": table1(),
		"jelly":  binset.MustJelly(20),
	}
	rng := rand.New(rand.NewSource(8))
	for name, menu := range menus {
		for trial := 0; trial < 20; trial++ {
			n := 1 + rng.Intn(500)
			th := 0.87 + 0.1*rng.Float64()
			q, err := opq.Build(menu, th)
			if err != nil {
				t.Fatal(err)
			}
			oneShot, err := opq.PlanCost(q, n)
			if err != nil {
				t.Fatal(err)
			}

			p, err := NewPlanner(menu, th)
			if err != nil {
				t.Fatal(err)
			}
			next := 0
			for next < n {
				batch := 1 + rng.Intn(40)
				if next+batch > n {
					batch = n - next
				}
				ids := make([]int, batch)
				for i := range ids {
					ids[i] = next + i
				}
				if _, err := p.Add(ids...); err != nil {
					t.Fatal(err)
				}
				next += batch
			}
			if _, err := p.Flush(); err != nil {
				t.Fatal(err)
			}
			if math.Abs(p.EmittedCost()-oneShot) > 1e-6 {
				t.Errorf("%s trial %d (n=%d, t=%v): streamed %v vs one-shot %v",
					name, trial, n, th, p.EmittedCost(), oneShot)
			}
			if p.EmittedTasks() != n {
				t.Errorf("%s trial %d: emitted %d tasks, want %d", name, trial, p.EmittedTasks(), n)
			}
		}
	}
}

// TestStreamBeatsPerBatchSolving quantifies the point of the planner: naive
// per-batch solving pays a remainder penalty per batch.
func TestStreamBeatsPerBatchSolving(t *testing.T) {
	menu := table1()
	const batches, batchSize, th = 50, 4, 0.95
	q, err := opq.Build(menu, th)
	if err != nil {
		t.Fatal(err)
	}
	naive := 0.0
	for b := 0; b < batches; b++ {
		c, err := opq.PlanCost(q, batchSize) // remainder penalty every batch
		if err != nil {
			t.Fatal(err)
		}
		naive += c
	}
	p, err := NewPlanner(menu, th)
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < batches; b++ {
		ids := make([]int, batchSize)
		for i := range ids {
			ids[i] = b*batchSize + i
		}
		if _, err := p.Add(ids...); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if p.EmittedCost() >= naive {
		t.Errorf("streaming %v did not beat per-batch %v", p.EmittedCost(), naive)
	}
}

// TestStreamedPlansAreFeasible validates every emitted plan against a
// matching instance.
func TestStreamedPlansAreFeasible(t *testing.T) {
	menu := binset.MustJelly(15)
	const n, th = 137, 0.93
	in, err := core.NewHomogeneous(menu, n, th)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlanner(menu, th)
	if err != nil {
		t.Fatal(err)
	}
	var parts []*core.Plan
	for i := 0; i < n; i++ {
		sub, err := p.Add(i)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, sub)
	}
	last, err := p.Flush()
	if err != nil {
		t.Fatal(err)
	}
	total := core.MergePlans(append(parts, last)...)
	if err := total.Validate(in); err != nil {
		t.Fatalf("streamed plan infeasible: %v", err)
	}
}

func TestFlushSemantics(t *testing.T) {
	p, err := NewPlanner(table1(), 0.95)
	if err != nil {
		t.Fatal(err)
	}
	empty, err := p.Flush()
	if err != nil || empty.NumUses() != 0 {
		t.Errorf("empty flush: %v, %v", empty, err)
	}
	if _, err := p.Flush(); err == nil {
		t.Error("double flush accepted")
	}
	if _, err := p.Add(1); err == nil {
		t.Error("Add after Flush accepted")
	}
}

func TestNewPlannerWithQueueSharesQueue(t *testing.T) {
	q, err := opq.Build(table1(), 0.95)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewPlannerWithQueue(q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewPlanner(table1(), 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if a.BlockSize() != b.BlockSize() {
		t.Fatalf("shared-queue planner block size %d != built planner %d", a.BlockSize(), b.BlockSize())
	}
	pa, err := a.Add(0, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := b.Add(0, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if pa.MustCost(table1()) != pb.MustCost(table1()) {
		t.Fatal("shared-queue planner diverges from built planner")
	}
	if _, err := NewPlannerWithQueue(nil); err == nil {
		t.Fatal("nil queue accepted")
	}
}
