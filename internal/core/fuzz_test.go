package core

import (
	"encoding/json"
	"math"
	"testing"
)

// FuzzInstanceJSON fuzzes the Instance decoder: arbitrary bytes must either
// fail to decode or produce an instance that re-validates and round-trips.
func FuzzInstanceJSON(f *testing.F) {
	seed, _ := json.Marshal(MustHeterogeneous(table1(), []float64{0.5, 0.9}))
	f.Add(seed)
	f.Add([]byte(`{"bins":[{"cardinality":1,"confidence":0.9,"cost":0.1}],"thresholds":[0.5]}`))
	f.Add([]byte(`{"bins":[],"thresholds":[]}`))
	f.Add([]byte(`{`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var in Instance
		if err := json.Unmarshal(data, &in); err != nil {
			return // rejected input is fine
		}
		// Accepted input must satisfy every invariant.
		if err := in.Bins().Validate(); err != nil {
			t.Fatalf("decoded invalid bins: %v", err)
		}
		for i := 0; i < in.N(); i++ {
			tt := in.Threshold(i)
			if !(tt >= 0 && tt < 1) {
				t.Fatalf("decoded threshold %v out of range", tt)
			}
			if th := in.Theta(i); math.IsNaN(th) || th < 0 {
				t.Fatalf("theta(%v) = %v", tt, th)
			}
		}
		round, err := json.Marshal(&in)
		if err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		var back Instance
		if err := json.Unmarshal(round, &back); err != nil {
			t.Fatalf("round-trip decode failed: %v", err)
		}
		if back.N() != in.N() {
			t.Fatalf("round trip changed n: %d → %d", in.N(), back.N())
		}
	})
}

// FuzzThetaTransform fuzzes the reliability transform pair: for any t in
// [0, 1), Theta is non-negative and ThresholdFromTheta inverts it.
func FuzzThetaTransform(f *testing.F) {
	f.Add(0.0)
	f.Add(0.5)
	f.Add(0.95)
	f.Add(0.999999)
	f.Fuzz(func(t *testing.T, raw float64) {
		if math.IsNaN(raw) || raw < 0 || raw >= 1 {
			return
		}
		theta := Theta(raw)
		if theta < 0 || math.IsNaN(theta) {
			t.Fatalf("Theta(%v) = %v", raw, theta)
		}
		back := ThresholdFromTheta(theta)
		if math.Abs(back-raw) > 1e-9 {
			t.Fatalf("round trip %v → %v → %v", raw, theta, back)
		}
	})
}

// planFromUsesSeeds are the shapes PlanFromUses must re-encode exactly.
func planFromUsesSeeds() map[string][]BinUse {
	return map[string][]BinUse{
		"empty": nil,
		// Consecutive full uses compact, a partial use does not, and a
		// cardinality change starts a new run.
		"mixed": {
			{Cardinality: 3, Tasks: []int{0, 1, 2}},
			{Cardinality: 3, Tasks: []int{3, 4, 5}},
			{Cardinality: 2, Tasks: []int{6, 7}},
			{Cardinality: 4, Tasks: []int{8, 9}},
			{Cardinality: 1, Tasks: []int{10}},
		},
		// What Greedy emits: shrinking, overlapping, irregular.
		"greedy": {
			{Cardinality: 3, Tasks: []int{4, 0, 2}},
			{Cardinality: 3, Tasks: []int{1, 3, 4}},
			{Cardinality: 3, Tasks: []int{0, 2}},
			{Cardinality: 1, Tasks: []int{4}},
			{Cardinality: 1, Tasks: []int{4}},
		},
		"padded-opq": NewRunPlan(testRuns()).Materialized(),
		"all-partial": {
			{Cardinality: 4, Tasks: []int{8, 9}},
			{Cardinality: 4, Tasks: []int{3}},
			{Cardinality: 3, Tasks: []int{1, 0}},
		},
	}
}

func TestPlanFromUses(t *testing.T) {
	for name, uses := range planFromUsesSeeds() {
		t.Run(name, func(t *testing.T) { assertPlanIsUses(t, planOf(uses...), uses) })
	}
	// Full-use runs compact: the mixed case's card-3 pair is one run.
	if got := len(planOf(planFromUsesSeeds()["mixed"]...).Runs().Runs); got != 4 {
		t.Fatalf("got %d runs, want 4 (card-3 pair compacted)", got)
	}
	// The plan owns its task storage.
	uses := []BinUse{{Cardinality: 2, Tasks: []int{0, 1}}}
	p := planOf(uses...)
	p.OffsetTasks(5)
	if uses[0].Tasks[0] != 0 {
		t.Fatal("PlanFromUses aliases the caller's task lists")
	}
	for name, bad := range map[string][]BinUse{
		"empty use":            {{Cardinality: 2, Tasks: nil}},
		"overfull use":         {{Cardinality: 1, Tasks: []int{0, 1}}},
		"zero cardinality":     {{Cardinality: 0, Tasks: nil}},
		"negative cardinality": {{Cardinality: 2, Tasks: []int{0, 1}}, {Cardinality: -1, Tasks: []int{2}}},
	} {
		if _, err := PlanFromUses(bad); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// FuzzPlanFromUses fuzzes the decode edge with a wire-form plan: the use
// lists rejected are exactly those holding a non-positive cardinality, an
// empty use or an overfull use, and an accepted list round-trips (see
// assertPlanIsUses). The runs it decoded to then serve the arena axis:
// re-read over the ids base..base+n-1, they behave the same over an
// identity arena as over an explicit one (see assertArenaParity).
func FuzzPlanFromUses(f *testing.F) {
	for _, uses := range planFromUsesSeeds() {
		seed, _ := json.Marshal(map[string][]BinUse{"uses": uses})
		f.Add(seed, 0, 9)
	}
	f.Add([]byte(`{"uses":[{"cardinality":0,"tasks":[1]}]}`), 0, 0)
	f.Add([]byte(`{"uses":[{"cardinality":2,"tasks":[]}]}`), 0, 0)
	f.Add([]byte(`{"uses":[{"cardinality":2,"tasks":[1,2,3]}]}`), 0, 0)
	f.Fuzz(func(t *testing.T, data []byte, base, delta int) {
		var wire struct {
			Uses []BinUse `json:"uses"`
		}
		if err := json.Unmarshal(data, &wire); err != nil {
			return // not a use list at all
		}
		malformed := false
		for _, u := range wire.Uses {
			if u.Cardinality <= 0 || len(u.Tasks) == 0 || len(u.Tasks) > u.Cardinality {
				malformed = true
			}
		}
		var p Plan
		if err := json.Unmarshal(data, &p); (err != nil) != malformed {
			t.Fatalf("malformed=%v but decode error is %v", malformed, err)
		}
		if !malformed {
			assertPlanIsUses(t, &p, wire.Uses)
			assertArenaParity(t, p.Runs().Runs, p.Runs().NumTasks(), base%fuzzIDRange, delta%fuzzIDRange)
		}
	})
}
