package stream

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/opq"
)

// splitMenu is the Table-1 menu the split round-trip tests solve against.
func splitMenu() core.BinSet {
	return core.MustBinSet([]core.TaskBin{
		{Cardinality: 1, Confidence: 0.90, Cost: 0.10},
		{Cardinality: 2, Confidence: 0.85, Cost: 0.18},
		{Cardinality: 3, Confidence: 0.80, Cost: 0.24},
	})
}

// roundTripRunSplit is the shared body of the test and the fuzz target:
// solve every caller over its local id space, offset each part to its
// global range, merge, split back, and require the split to reproduce
// every caller's original plan — same uses, bit-identical cost, local ids
// only.
func roundTripRunSplit(t *testing.T, sizes []int) {
	t.Helper()
	menu := splitMenu()
	q, err := opq.Build(menu, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	parts := make([]*core.Plan, len(sizes))
	originals := make([]*core.Plan, len(sizes))
	offset := 0
	for i, n := range sizes {
		pr, err := opq.SolveRunsRange(q, 0, n)
		if err != nil {
			t.Fatal(err)
		}
		originals[i] = core.NewRunPlan(pr)
		shifted := core.MergePlans(originals[i]) // deep copy
		shifted.OffsetTasks(offset)
		parts[i] = shifted
		offset += n
	}
	merged := core.MergePlans(parts...)
	split, err := SplitPlan(merged, sizes)
	if err != nil {
		t.Fatalf("SplitPlan: %v", err)
	}
	if len(split) != len(sizes) {
		t.Fatalf("split into %d plans, want %d", len(split), len(sizes))
	}
	for i, n := range sizes {
		got, want := split[i], originals[i]
		if got.NumUses() != want.NumUses() {
			t.Fatalf("caller %d (n=%d): %d uses, want %d", i, n, got.NumUses(), want.NumUses())
		}
		if n == 0 {
			continue
		}
		if gc, wc := got.MustCost(menu), want.MustCost(menu); gc != wc {
			t.Fatalf("caller %d: split cost %v != original %v (not bit-identical)", i, gc, wc)
		}
		in := core.MustHomogeneous(menu, n, 0.95)
		if err := got.Validate(in); err != nil {
			t.Fatalf("caller %d: split plan no longer local/feasible: %v", i, err)
		}
		gu, wu := got.Materialized(), want.Materialized()
		for ui := range wu {
			if gu[ui].Cardinality != wu[ui].Cardinality {
				t.Fatalf("caller %d use %d: cardinality %d != %d", i, ui, gu[ui].Cardinality, wu[ui].Cardinality)
			}
			for ti := range wu[ui].Tasks {
				if gu[ui].Tasks[ti] != wu[ui].Tasks[ti] {
					t.Fatalf("caller %d use %d: tasks %v != %v", i, ui, gu[ui].Tasks, wu[ui].Tasks)
				}
			}
		}
	}
}

// TestRunSplitRoundTrip covers the deterministic shapes: mixed sizes,
// single caller, empty callers between full ones, and all-padded tails.
func TestRunSplitRoundTrip(t *testing.T) {
	for _, sizes := range [][]int{
		{37},
		{1, 2, 3},
		{12, 0, 7, 30},
		{5, 5, 5, 5},
		{100, 1, 64, 2, 200},
	} {
		roundTripRunSplit(t, sizes)
	}
}

// TestRunSplitIsolatesSiblings pins the storage-isolation contract:
// OffsetTasks on one split output never touches another, even though the
// parts come out of one merged arena.
func TestRunSplitIsolatesSiblings(t *testing.T) {
	menu := splitMenu()
	q, err := opq.Build(menu, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int{14, 23, 9}
	parts := make([]*core.Plan, len(sizes))
	offset := 0
	for i, n := range sizes {
		pr, err := opq.SolveRunsRange(q, offset, n)
		if err != nil {
			t.Fatal(err)
		}
		parts[i] = core.NewRunPlan(pr)
		offset += n
	}
	split, err := SplitPlan(core.MergePlans(parts...), sizes)
	if err != nil {
		t.Fatal(err)
	}
	// Rebase caller 0 back to a global range; its siblings must not move.
	split[0].OffsetTasks(1000)
	for i := 1; i < len(sizes); i++ {
		in := core.MustHomogeneous(menu, sizes[i], 0.95)
		if err := split[i].Validate(in); err != nil {
			t.Fatalf("offsetting caller 0 corrupted caller %d: %v", i, err)
		}
	}
	if got := split[1].Runs().NumTasks(); got != sizes[1] {
		t.Fatalf("caller 1 arena holds %d tasks, want its own %d", got, sizes[1])
	}
	if err := split[0].EachUse(func(_ int, tasks []int) error {
		for _, task := range tasks {
			if task < 1000 {
				t.Fatalf("caller 0 task %d missed its offset", task)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestRunSplitRejectsLeakage: a run whose window crosses a caller
// boundary must fail the whole split.
func TestRunSplitRejectsLeakage(t *testing.T) {
	menu := splitMenu()
	q, err := opq.Build(menu, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := opq.SolveRunsRange(q, 0, 10) // ids 0..9 span both "callers"
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SplitPlan(core.NewRunPlan(pr), []int{5, 5}); err == nil {
		t.Fatal("a run spanning two callers must fail the split")
	}
	// And ids outside the merged space fail too.
	pr2, err := opq.SolveRunsRange(q, 40, 6)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SplitPlan(core.NewRunPlan(pr2), []int{6}); err == nil {
		t.Fatal("out-of-range ids must fail the split")
	}
}

// FuzzRunSplitRoundTrip fuzzes the MergePlans/SplitPlan inverse: arbitrary
// caller counts and sizes (including zeros and sub-block remainders) must
// round-trip exactly.
func FuzzRunSplitRoundTrip(f *testing.F) {
	f.Add(int64(1), uint8(3))
	f.Add(int64(42), uint8(1))
	f.Add(int64(7), uint8(8))
	f.Add(int64(99), uint8(16))
	f.Fuzz(func(t *testing.T, seed int64, callers uint8) {
		k := int(callers%16) + 1
		rng := rand.New(rand.NewSource(seed))
		sizes := make([]int, k)
		for i := range sizes {
			switch rng.Intn(4) {
			case 0:
				sizes[i] = 0
			case 1:
				sizes[i] = rng.Intn(3) // sub-block remainders
			default:
				sizes[i] = rng.Intn(120)
			}
		}
		roundTripRunSplit(t, sizes)
	})
}
