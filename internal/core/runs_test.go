package core

import (
	"bytes"
	"encoding/json"
	"io"
	"reflect"
	"sync"
	"testing"
)

// testComb is a two-part recipe over a {2,3}-cardinality menu: block
// length 6, each task twice in 2-bins and once in 3-bins.
func testComb() *RunComb {
	return &RunComb{
		Parts:    []RunPart{{Cardinality: 2, Count: 2}, {Cardinality: 3, Count: 1}},
		BlockLen: 6,
	}
}

func testMenu() BinSet {
	return MustBinSet([]TaskBin{
		{Cardinality: 2, Confidence: 0.85, Cost: 0.18},
		{Cardinality: 3, Confidence: 0.80, Cost: 0.24},
	})
}

// testRuns builds a two-run plan: 2 full blocks over tasks 0..11 plus a
// padded application over the 4-task remainder 12..15.
func testRuns() *PlanRuns {
	arena := make([]int, 16)
	for i := range arena {
		arena[i] = i
	}
	return &PlanRuns{
		Arena: arena,
		Runs: []BlockRun{
			{Comb: testComb(), Blocks: 2, Off: 0, Len: 12},
			{Comb: testComb(), Blocks: 0, Off: 12, Len: 4},
		},
	}
}

// menuFor returns a menu holding every cardinality the uses name, with
// costs irregular enough that a reordered float sum would show.
func menuFor(uses []BinUse) BinSet {
	seen := make(map[int]bool)
	var bins []TaskBin
	for _, u := range uses {
		if !seen[u.Cardinality] {
			seen[u.Cardinality] = true
			bins = append(bins, TaskBin{Cardinality: u.Cardinality, Confidence: 0.8, Cost: 0.1 * float64(u.Cardinality%97+1) / 3})
		}
	}
	return MustBinSet(bins)
}

// assertPlanIsUses is the one property every plan constructor answers to:
// the plan expands to exactly uses, and every figure computed from run
// metadata equals the direct count over that list — the cost bit for bit,
// as the left-to-right per-use sum — and the streamed JSON is what
// encoding/json writes for the list.
func assertPlanIsUses(t testing.TB, p *Plan, uses []BinUse) {
	t.Helper()
	if len(uses) == 0 {
		uses = nil // an empty plan materializes as nil and encodes as null
	}
	if got := p.Materialized(); !reflect.DeepEqual(got, uses) {
		t.Fatalf("expansion diverges:\n got %+v\nwant %+v", got, uses)
	}
	menu := menuFor(uses)
	counts, assigns, cost := make(map[int]int), 0, 0.0
	for _, u := range uses {
		counts[u.Cardinality]++
		assigns += len(u.Tasks)
		b, _ := menu.ByCardinality(u.Cardinality)
		cost += b.Cost
	}
	if p.NumUses() != len(uses) || p.NumAssignments() != assigns || !reflect.DeepEqual(p.Counts(), counts) {
		t.Fatalf("run arithmetic %d uses / %d assignments / %v, direct count %d / %d / %v",
			p.NumUses(), p.NumAssignments(), p.Counts(), len(uses), assigns, counts)
	}
	if got := p.MustCost(menu); got != cost {
		t.Fatalf("Cost %v != per-use sum %v", got, cost)
	}
	want, err := json.Marshal(struct {
		Uses []BinUse `json:"uses"`
	}{uses})
	if err != nil {
		t.Fatal(err)
	}
	if got := encodeViaStream(t, p); !bytes.Equal(got, want) {
		t.Fatalf("EncodeJSON differs from encoding/json:\n got %s\nwant %s", got, want)
	}
}

// expand copies the plan's uses off EachUse, the streaming twin of
// Materialize, so each expansion checks the other.
func expand(t testing.TB, pr *PlanRuns) []BinUse {
	t.Helper()
	var uses []BinUse
	err := pr.EachUse(func(card int, tasks []int) error {
		uses = append(uses, BinUse{Cardinality: card, Tasks: append([]int(nil), tasks...)})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return uses
}

// explicitOf returns pr's twin over an explicit arena: the same runs, the
// same ids, written out.
func explicitOf(pr *PlanRuns) *PlanRuns {
	return &PlanRuns{Arena: pr.appendSlots([]int{}, 0, pr.NumTasks()), Runs: pr.Runs}
}

// encodings returns every wire form of the plan, in a fixed order.
func encodings(t testing.TB, p *Plan) [][]byte {
	t.Helper()
	var js, uses, nd bytes.Buffer
	for _, e := range []struct {
		enc func(io.Writer) error
		buf *bytes.Buffer
	}{{p.EncodeJSON, &js}, {p.EncodeUses, &uses}, {p.EncodeUsesNDJSON, &nd}} {
		if err := e.enc(e.buf); err != nil {
			t.Fatal(err)
		}
	}
	marshalled, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	return [][]byte{js.Bytes(), uses.Bytes(), nd.Bytes(), marshalled}
}

// assertSamePlan requires two plans to agree byte for byte on every
// encoding and exactly on every figure computed from run metadata.
func assertSamePlan(t testing.TB, stage string, a, b *Plan, menu BinSet) {
	t.Helper()
	ea, eb := encodings(t, a), encodings(t, b)
	for i := range ea {
		if !bytes.Equal(ea[i], eb[i]) {
			t.Fatalf("%s: encoding %d differs:\n%s\n%s", stage, i, ea[i], eb[i])
		}
	}
	ca, errA := a.Cost(menu)
	cb, errB := b.Cost(menu)
	if ca != cb || (errA == nil) != (errB == nil) {
		t.Fatalf("%s: cost %v (%v) vs %v (%v)", stage, ca, errA, cb, errB)
	}
	if a.NumUses() != b.NumUses() || a.NumAssignments() != b.NumAssignments() ||
		a.Runs().NumTasks() != b.Runs().NumTasks() || !reflect.DeepEqual(a.Counts(), b.Counts()) {
		t.Fatalf("%s: run arithmetic differs", stage)
	}
}

// assertArenaParity is the identity-vs-explicit property: for the same
// runs over ids base..base+n-1 the two arenas are indistinguishable —
// before and after OffsetTasks(delta), and through a []BinUse view taken
// before the offset, which must follow it (the coherence rule).
func assertArenaParity(t testing.TB, runs []BlockRun, n, base, delta int) {
	t.Helper()
	pair := func() (*Plan, *Plan) {
		ident := &PlanRuns{Base: base, N: n, Runs: runs}
		return NewRunPlan(ident), NewRunPlan(explicitOf(ident))
	}
	ident, expl := pair()
	menu := menuFor(expand(t, expl.Runs()))
	assertSamePlan(t, "fresh", ident, expl, menu)
	ident.OffsetTasks(delta)
	expl.OffsetTasks(delta)
	if ident.Runs().Arena != nil {
		t.Fatal("OffsetTasks wrote an identity arena out")
	}
	assertSamePlan(t, "offset", ident, expl, menu)
	if !reflect.DeepEqual(ident.Materialized(), expl.Materialized()) {
		t.Fatal("materialized views differ after the offset")
	}

	ident, expl = pair()
	viewI, viewE := ident.Materialized(), expl.Materialized()
	if !reflect.DeepEqual(viewI, viewE) {
		t.Fatal("materialized views differ")
	}
	ident.OffsetTasks(delta)
	expl.OffsetTasks(delta)
	if want := expand(t, ident.Runs()); !reflect.DeepEqual(viewI, want) {
		t.Fatalf("view taken before the offset did not follow it:\n got %+v\nwant %+v", viewI, want)
	}
	if !reflect.DeepEqual(viewI, viewE) {
		t.Fatal("materialized views differ after a later offset")
	}
	assertSamePlan(t, "materialized, then offset", ident, expl, menu)
}

func TestIdentityArenaParity(t *testing.T) {
	runs := testRuns().Runs
	for _, c := range []struct{ base, delta int }{{0, 0}, {0, 10}, {7, -7}, {-5, 3}, {1 << 40, -(1 << 39)}} {
		assertArenaParity(t, runs, 16, c.base, c.delta)
	}
	assertArenaParity(t, nil, 0, 3, 4) // zero runs: the empty plan either way
}

func TestPlanRunsArithmeticMatchesExpansion(t *testing.T) {
	pr := testRuns()
	assertPlanIsUses(t, NewRunPlan(pr), expand(t, pr))
}

func TestPlanRunsCostUnknownCardinality(t *testing.T) {
	pr := testRuns()
	badMenu := MustBinSet([]TaskBin{{Cardinality: 2, Confidence: 0.85, Cost: 0.18}})
	if _, err := NewRunPlan(pr).Cost(badMenu); err == nil {
		t.Fatal("cost against a menu missing cardinality 3 must fail")
	}
}

// TestPlanRunsJSONMatchesLegacy: a plan's JSON is the {"uses":[...]} wire
// form older versions stored — encoding/json over the use list — and it
// decodes back to the same plan.
func TestPlanRunsJSONMatchesLegacy(t *testing.T) {
	plan := NewRunPlan(testRuns())
	assertEncodeMatchesMarshal(t, plan)
	data, err := json.Marshal(plan)
	if err != nil {
		t.Fatal(err)
	}
	var back Plan
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	assertPlanIsUses(t, &back, plan.Materialized())
	// Empty plans keep the "uses":null form, whichever way they were made.
	for _, empty := range []*Plan{{}, NewRunPlan(&PlanRuns{}), planOf()} {
		if got, err := json.Marshal(empty); err != nil || string(got) != `{"uses":null}` {
			t.Fatalf("empty plan JSON %s (err %v)", got, err)
		}
	}
	if err := json.Unmarshal([]byte(`{"uses":[]}`), &back); err != nil || back.NumUses() != 0 {
		t.Fatalf("decoding an empty use list: %d uses, err %v", back.NumUses(), err)
	}
}

func TestMergePlanRunsIndependence(t *testing.T) {
	a, b := testRuns(), testRuns()
	merged := MergePlanRuns(a, nil, b)
	if got, want := len(merged.Arena), len(a.Arena)+len(b.Arena); got != want {
		t.Fatalf("merged arena %d, want %d", got, want)
	}
	wantUses := append(expand(t, a), expand(t, b)...)
	if !reflect.DeepEqual(expand(t, merged), wantUses) {
		t.Fatal("merged expansion is not the concatenation of the parts")
	}
	// Mutating the merge must not touch the inputs.
	merged.OffsetTasks(100)
	if a.Arena[0] != 0 || b.Arena[0] != 0 {
		t.Fatal("OffsetTasks on the merge leaked into an input arena")
	}
	for _, u := range expand(t, merged) {
		for _, task := range u.Tasks {
			if task < 100 {
				t.Fatalf("task %d missed the offset", task)
			}
		}
	}
}

// TestMergePlanRunsIdentity: identity parts that each start where the
// previous one ended merge to one identity arena at the first part's base;
// anything else — a gap, a swapped pair, one explicit part — is written
// into an explicit arena. Either way the merge expands to what the
// all-explicit merge does, and stays independent of its inputs.
func TestMergePlanRunsIdentity(t *testing.T) {
	span := func(base int) *PlanRuns { return &PlanRuns{Base: base, N: 16, Runs: testRuns().Runs} }
	empty := func(base int) *PlanRuns { return &PlanRuns{Base: base} } // θ = 0: no runs, no tasks
	for name, c := range map[string]struct {
		parts    []*PlanRuns
		identity bool
	}{
		"abutting":          {[]*PlanRuns{span(0), span(16), span(32)}, true},
		"non-zero base":     {[]*PlanRuns{span(100), span(116)}, true},
		"nil and empty":     {[]*PlanRuns{nil, empty(999), span(100), nil, empty(5), span(116), {}}, true},
		"single":            {[]*PlanRuns{span(40)}, true},
		"nothing":           {[]*PlanRuns{nil, empty(3)}, true},
		"gap":               {[]*PlanRuns{span(0), span(17)}, false},
		"overlap":           {[]*PlanRuns{span(0), span(15)}, false},
		"out of order":      {[]*PlanRuns{span(16), span(0)}, false},
		"one explicit part": {[]*PlanRuns{span(0), explicitOf(span(16)), span(32)}, false},
		"explicit first":    {[]*PlanRuns{explicitOf(span(0)), span(16)}, false},
	} {
		t.Run(name, func(t *testing.T) {
			merged := MergePlanRuns(c.parts...)
			var twins []*PlanRuns
			first, tasks := 0, 0
			for _, pr := range c.parts {
				if pr == nil {
					continue
				}
				if tasks == 0 {
					first = pr.Base
				}
				tasks += pr.NumTasks()
				twins = append(twins, explicitOf(pr))
			}
			if got := merged.Arena == nil; got != c.identity {
				t.Fatalf("identity arena = %v, want %v", got, c.identity)
			}
			if c.identity && tasks > 0 && (merged.Base != first || merged.N != tasks) {
				t.Fatalf("merged identity arena (base %d, n %d), want (%d, %d)", merged.Base, merged.N, first, tasks)
			}
			if merged.NumTasks() != tasks {
				t.Fatalf("merged %d tasks, want %d", merged.NumTasks(), tasks)
			}
			want := MergePlanRuns(twins...)
			if tasks > 0 && want.Arena == nil {
				t.Fatal("the all-explicit merge lost its arena")
			}
			assertSamePlan(t, "merged", NewRunPlan(merged), NewRunPlan(want), testMenu())
			// Independence: moving the merge moves no input.
			before := make([][]BinUse, len(c.parts))
			for i, pr := range c.parts {
				if pr != nil {
					before[i] = expand(t, pr)
				}
			}
			merged.OffsetTasks(1000)
			want.OffsetTasks(1000)
			assertSamePlan(t, "merged, then offset", NewRunPlan(merged), NewRunPlan(want), testMenu())
			for i, pr := range c.parts {
				if pr != nil && !reflect.DeepEqual(expand(t, pr), before[i]) {
					t.Fatalf("OffsetTasks on the merge leaked into part %d", i)
				}
			}
		})
	}
}

func TestOffsetTasksKeepsMaterializationCoherent(t *testing.T) {
	pr := testRuns()
	before := NewRunPlan(pr)
	mat := before.Materialized() // materialize BEFORE offsetting
	pr.OffsetTasks(10)
	after := expand(t, pr)
	for i, u := range mat {
		for j, task := range u.Tasks {
			if task != after[i].Tasks[j] {
				t.Fatalf("use %d task %d: cached materialization %d != post-offset expansion %d",
					i, j, task, after[i].Tasks[j])
			}
			if task < 10 {
				t.Fatalf("use %d: cached materialization missed the offset (task %d)", i, task)
			}
		}
	}
}

func TestMaterializeConcurrent(t *testing.T) {
	pr := testRuns()
	plan := NewRunPlan(pr)
	var wg sync.WaitGroup
	views := make([][]BinUse, 16)
	for i := range views {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			views[i] = plan.Materialized()
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(views); i++ {
		if &views[i][0] != &views[0][0] {
			t.Fatal("concurrent Materialized calls produced distinct expansions")
		}
	}
}

// TestMalformedRunsRejected: hand-built run plans with impossible shapes
// must come back as errors from the designated rejection paths (Validate
// via EachUse, Cost, and the encoders), never as panics deep in the
// expansion.
func TestMalformedRunsRejected(t *testing.T) {
	menu := testMenu()
	in := MustHomogeneous(menu, 16, 0.95)
	bad := []*PlanRuns{
		{Runs: []BlockRun{{Comb: testComb(), Blocks: 0, Off: 0, Len: 0}}},                                                                                 // empty padded run
		{Runs: []BlockRun{{Comb: nil, Blocks: 1, Off: 0, Len: 6}}},                                                                                        // no comb
		{Arena: make([]int, 4), Runs: []BlockRun{{Comb: testComb(), Blocks: 1, Off: 0, Len: 6}}},                                                          // window past arena
		{Arena: make([]int, 12), Runs: []BlockRun{{Comb: testComb(), Blocks: 2, Off: 0, Len: 6}}},                                                         // len != blocks·L
		{Arena: make([]int, 8), Runs: []BlockRun{{Comb: testComb(), Blocks: 0, Off: 0, Len: 8}}},                                                          // padded ≥ block
		{Arena: make([]int, 6), Runs: []BlockRun{{Comb: &RunComb{Parts: []RunPart{{Cardinality: 4, Count: 1}}, BlockLen: 6}, Blocks: 1, Off: 0, Len: 6}}}, // card ∤ L
	}
	for i, pr := range bad {
		if err := NewRunPlan(pr).Validate(in); err == nil {
			t.Errorf("malformed plan %d passed Validate", i)
		}
		if _, err := NewRunPlan(pr).Cost(menu); err == nil {
			t.Errorf("malformed plan %d passed Cost", i)
		}
		if _, err := NewRunPlan(pr).MarshalJSON(); err == nil {
			t.Errorf("malformed plan %d was marshalled", i)
		}
	}
}

func TestRunBackedValidateAndMass(t *testing.T) {
	pr := testRuns()
	menu := testMenu()
	plan := NewRunPlan(pr)
	gotMass, err := plan.TransformedMass(16, menu)
	if err != nil {
		t.Fatal(err)
	}
	wantMass := make([]float64, 16)
	for _, u := range expand(t, pr) {
		b, _ := menu.ByCardinality(u.Cardinality)
		for _, task := range u.Tasks {
			wantMass[task] += b.Weight()
		}
	}
	if !reflect.DeepEqual(gotMass, wantMass) {
		t.Fatal("TransformedMass differs from the per-use accumulation")
	}
	// Each full-block task sits in two 2-bins and one 3-bin (mass ≈ 5.40);
	// the padded block's cycling gives its tasks at least that.
	if err := plan.Validate(MustHomogeneous(menu, 16, 0.99)); err != nil {
		t.Fatalf("Validate at 0.99: %v", err)
	}
	if err := plan.Validate(MustHomogeneous(menu, 16, 0.9999)); err == nil {
		t.Fatal("Validate accepted a plan below the threshold")
	}
}
