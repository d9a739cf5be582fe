package core

import (
	"bytes"
	"encoding/json"
	"io"
	"reflect"
	"slices"
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
func testRuns() *Plan {
	arena := make([]int, 16)
	for i := range arena {
		arena[i] = i
	}
	return &Plan{
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
	direct := Summary{Uses: countUses(uses), NumUses: len(uses)}
	for _, u := range uses {
		direct.NumAssignments += len(u.Tasks)
		b, _ := menu.ByCardinality(u.Cardinality)
		direct.Cost += b.Cost
	}
	if got, err := p.Summarize(menu); err != nil || !reflect.DeepEqual(got, direct) {
		t.Fatalf("run arithmetic %+v (%v), direct count %+v", got, err, direct)
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

// countUses is the {τ_l} vector counted use by use, in ascending
// cardinality: the oracle for Summarize's run arithmetic.
func countUses(uses []BinUse) []CardinalityUses {
	rows := []CardinalityUses{}
	for _, u := range uses {
		i, found := slices.BinarySearchFunc(rows, u.Cardinality, func(r CardinalityUses, l int) int { return r.Cardinality - l })
		if !found {
			rows = slices.Insert(rows, i, CardinalityUses{Cardinality: u.Cardinality})
		}
		rows[i].Count++
	}
	return rows
}

// expand copies the plan's uses off EachUse, the streaming twin of
// Materialized, so each expansion checks the other.
func expand(t testing.TB, pr *Plan) []BinUse {
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
func explicitOf(pr *Plan) *Plan {
	return &Plan{Arena: pr.appendSlots([]int{}, 0, pr.NumTasks()), Runs: pr.Runs}
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
	sa, errA := a.Summarize(menu)
	sb, errB := b.Summarize(menu)
	if !reflect.DeepEqual(sa, sb) || (errA == nil) != (errB == nil) {
		t.Fatalf("%s: summary %+v (%v) vs %+v (%v)", stage, sa, errA, sb, errB)
	}
	if a.NumTasks() != b.NumTasks() {
		t.Fatalf("%s: %d tasks vs %d", stage, a.NumTasks(), b.NumTasks())
	}
}

// assertArenaParity is the identity-vs-explicit property: for the same
// runs over ids base..base+n-1, and again over the ids moved by delta, the
// two arenas are indistinguishable on every encoding and figure and
// through their []BinUse views.
func assertArenaParity(t testing.TB, runs []BlockRun, n, base, delta int) {
	t.Helper()
	for _, at := range []int{base, base + delta} {
		ident := &Plan{Base: at, N: n, Runs: runs}
		expl := explicitOf(ident)
		menu := menuFor(expand(t, expl))
		assertSamePlan(t, "fresh", ident, expl, menu)
		if !reflect.DeepEqual(ident.Materialized(), expl.Materialized()) {
			t.Fatal("materialized views differ")
		}
		assertSamePlan(t, "materialized", ident, expl, menu)
	}
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
	assertPlanIsUses(t, pr, expand(t, pr))
}

func TestPlanRunsCostUnknownCardinality(t *testing.T) {
	pr := testRuns()
	badMenu := MustBinSet([]TaskBin{{Cardinality: 2, Confidence: 0.85, Cost: 0.18}})
	if _, err := pr.Cost(badMenu); err == nil {
		t.Fatal("cost against a menu missing cardinality 3 must fail")
	}
}

// TestPlanRunsJSONMatchesLegacy: a plan's JSON is the {"uses":[...]} wire
// form older versions stored — encoding/json over the use list — and it
// decodes back to the same plan.
func TestPlanRunsJSONMatchesLegacy(t *testing.T) {
	plan := testRuns()
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
	for _, empty := range []*Plan{{}, {Runs: []BlockRun{}}, planOf()} {
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
	merged := MergePlans(a, nil, b)
	if got, want := len(merged.Arena), len(a.Arena)+len(b.Arena); got != want {
		t.Fatalf("merged arena %d, want %d", got, want)
	}
	wantUses := append(expand(t, a), expand(t, b)...)
	if !reflect.DeepEqual(expand(t, merged), wantUses) {
		t.Fatal("merged expansion is not the concatenation of the parts")
	}
	// Writing through the merge's arena must not touch the inputs.
	for i := range merged.Arena {
		merged.Arena[i] += 100
	}
	if a.Arena[0] != 0 || b.Arena[0] != 0 {
		t.Fatal("a write through the merge's arena leaked into an input arena")
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
	span := func(base int) *Plan { return &Plan{Base: base, N: 16, Runs: testRuns().Runs} }
	empty := func(base int) *Plan { return &Plan{Base: base} } // θ = 0: no runs, no tasks
	for name, c := range map[string]struct {
		parts    []*Plan
		identity bool
	}{
		"abutting":          {[]*Plan{span(0), span(16), span(32)}, true},
		"non-zero base":     {[]*Plan{span(100), span(116)}, true},
		"nil and empty":     {[]*Plan{nil, empty(999), span(100), nil, empty(5), span(116), {}}, true},
		"single":            {[]*Plan{span(40)}, true},
		"nothing":           {[]*Plan{nil, empty(3)}, true},
		"gap":               {[]*Plan{span(0), span(17)}, false},
		"overlap":           {[]*Plan{span(0), span(15)}, false},
		"out of order":      {[]*Plan{span(16), span(0)}, false},
		"one explicit part": {[]*Plan{span(0), explicitOf(span(16)), span(32)}, false},
		"explicit first":    {[]*Plan{explicitOf(span(0)), span(16)}, false},
	} {
		t.Run(name, func(t *testing.T) {
			merged := MergePlans(c.parts...)
			var twins []*Plan
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
			want := MergePlans(twins...)
			if tasks > 0 && want.Arena == nil {
				t.Fatal("the all-explicit merge lost its arena")
			}
			assertSamePlan(t, "merged", merged, want, testMenu())
			// Independence: writing through the merge's arena moves no
			// input (an identity merge has no arena to share).
			before := make([][]BinUse, len(c.parts))
			for i, pr := range c.parts {
				if pr != nil {
					before[i] = expand(t, pr)
				}
			}
			for i := range merged.Arena {
				merged.Arena[i] += 1000
			}
			for i, pr := range c.parts {
				if pr != nil && !reflect.DeepEqual(expand(t, pr), before[i]) {
					t.Fatalf("a write through the merge's arena leaked into part %d", i)
				}
			}
		})
	}
}

func TestMaterializeConcurrent(t *testing.T) {
	plan := testRuns()
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
		if !reflect.DeepEqual(views[i], views[0]) {
			t.Fatalf("concurrent Materialized calls disagree: %+v and %+v", views[i], views[0])
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
	bad := []*Plan{
		{Runs: []BlockRun{{Comb: testComb(), Blocks: 0, Off: 0, Len: 0}}},                                                                                 // empty padded run
		{Runs: []BlockRun{{Comb: nil, Blocks: 1, Off: 0, Len: 6}}},                                                                                        // no comb
		{Arena: make([]int, 4), Runs: []BlockRun{{Comb: testComb(), Blocks: 1, Off: 0, Len: 6}}},                                                          // window past arena
		{Arena: make([]int, 12), Runs: []BlockRun{{Comb: testComb(), Blocks: 2, Off: 0, Len: 6}}},                                                         // len != blocks·L
		{Arena: make([]int, 8), Runs: []BlockRun{{Comb: testComb(), Blocks: 0, Off: 0, Len: 8}}},                                                          // padded ≥ block
		{Arena: make([]int, 6), Runs: []BlockRun{{Comb: &RunComb{Parts: []RunPart{{Cardinality: 4, Count: 1}}, BlockLen: 6}, Blocks: 1, Off: 0, Len: 6}}}, // card ∤ L
	}
	for i, p := range bad {
		if err := p.Validate(in); err == nil {
			t.Errorf("malformed plan %d passed Validate", i)
		}
		if _, err := p.Cost(menu); err == nil {
			t.Errorf("malformed plan %d passed Cost", i)
		}
		if _, err := p.MarshalJSON(); err == nil {
			t.Errorf("malformed plan %d was marshalled", i)
		}
	}
}

func TestRunBackedValidateAndMass(t *testing.T) {
	plan := testRuns()
	menu := testMenu()
	gotMass, err := plan.TransformedMass(16, menu)
	if err != nil {
		t.Fatal(err)
	}
	wantMass := make([]float64, 16)
	for _, u := range expand(t, plan) {
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
