package core

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func TestNewHomogeneous(t *testing.T) {
	in, err := NewHomogeneous(table1(), 5, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if in.N() != 5 {
		t.Fatalf("N = %d, want 5", in.N())
	}
	if !in.Homogeneous() {
		t.Error("homogeneous instance reports heterogeneous")
	}
	for i := 0; i < 5; i++ {
		if in.Threshold(i) != 0.9 {
			t.Errorf("Threshold(%d) = %v", i, in.Threshold(i))
		}
	}
}

func TestNewHomogeneousRejects(t *testing.T) {
	if _, err := NewHomogeneous(table1(), -1, 0.9); err == nil {
		t.Error("accepted negative n")
	}
	if _, err := NewHomogeneous(table1(), 3, 1.0); err == nil {
		t.Error("accepted t = 1")
	}
	if _, err := NewHomogeneous(table1(), 3, -0.1); err == nil {
		t.Error("accepted t < 0")
	}
	if _, err := NewHomogeneous(BinSet{}, 3, 0.9); err == nil {
		t.Error("accepted empty menu with tasks")
	}
}

// TestInstanceImplicitEqualsSlice: NewHomogeneous stores (n, t) and no
// slice, and nothing an instance exposes can tell it from the instance
// NewHeterogeneous builds over n copies of t — every accessor, the JSON
// form and its round trip, the out-of-range panic, each constructor error.
func TestInstanceImplicitEqualsSlice(t *testing.T) {
	for _, c := range []struct {
		n  int
		th float64
	}{{0, 0.9}, {0, 7}, {1, 0}, {5, 0.9}, {4, 0.75}, {1000, 0.999}} {
		implicit := MustHomogeneous(table1(), c.n, c.th)
		ths := make([]float64, c.n)
		for i := range ths {
			ths[i] = c.th
		}
		slice := MustHeterogeneous(table1(), ths)
		if implicit.thresholds != nil {
			t.Fatalf("n=%d: NewHomogeneous built a threshold slice", c.n)
		}
		if implicit.N() != slice.N() || implicit.Homogeneous() != slice.Homogeneous() ||
			implicit.MinThreshold() != slice.MinThreshold() || implicit.MaxThreshold() != slice.MaxThreshold() ||
			implicit.Relaxed() != slice.Relaxed() || !reflect.DeepEqual(implicit.Thresholds(), slice.Thresholds()) {
			t.Fatalf("n=%d t=%v: implicit and slice instances disagree", c.n, c.th)
		}
		for i := 0; i < c.n; i++ {
			if implicit.Threshold(i) != slice.Threshold(i) || implicit.Theta(i) != slice.Theta(i) {
				t.Fatalf("task %d: implicit (%v, %v), slice (%v, %v)", i,
					implicit.Threshold(i), implicit.Theta(i), slice.Threshold(i), slice.Theta(i))
			}
		}
		for _, i := range []int{-1, c.n} {
			for name, in := range map[string]*Instance{"implicit": implicit, "slice": slice} {
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("%s: Threshold(%d) of %d tasks did not panic", name, i, c.n)
						}
					}()
					in.Threshold(i)
				}()
			}
		}
		a, errA := json.Marshal(implicit)
		b, errB := json.Marshal(slice)
		if errA != nil || errB != nil || !bytes.Equal(a, b) {
			t.Fatalf("JSON differs (%v, %v):\n%s\n%s", errA, errB, a, b)
		}
		var back Instance
		if err := json.Unmarshal(a, &back); err != nil {
			t.Fatal(err)
		}
		if back.N() != c.n || !back.Homogeneous() || !reflect.DeepEqual(back.Thresholds(), implicit.Thresholds()) {
			t.Fatalf("round trip changed the instance: %d tasks at %v", back.N(), back.Thresholds())
		}
	}

	badMenu := BinSet{bins: []TaskBin{{Cardinality: 0, Confidence: 0.9, Cost: 0.1}}}
	for name, c := range map[string]struct {
		bins BinSet
		n    int
		th   float64
	}{
		"t = 1":            {table1(), 3, 1},
		"t < 0":            {table1(), 3, -0.1},
		"t NaN":            {table1(), 3, math.NaN()},
		"empty menu":       {BinSet{}, 3, 0.9},
		"invalid menu":     {badMenu, 3, 0.9},
		"invalid menu n=0": {badMenu, 0, 0.9},
	} {
		ths := make([]float64, c.n)
		for i := range ths {
			ths[i] = c.th
		}
		_, errH := NewHomogeneous(c.bins, c.n, c.th)
		_, errS := NewHeterogeneous(c.bins, ths)
		if errH == nil || errS == nil || errH.Error() != errS.Error() {
			t.Errorf("%s: NewHomogeneous says %v, NewHeterogeneous says %v", name, errH, errS)
		}
	}
}

func TestHeterogeneousDetection(t *testing.T) {
	in := MustHeterogeneous(table1(), []float64{0.5, 0.6, 0.7, 0.86})
	if in.Homogeneous() {
		t.Error("heterogeneous instance reports homogeneous")
	}
	if got := in.MinThreshold(); got != 0.5 {
		t.Errorf("MinThreshold = %v, want 0.5", got)
	}
	if got := in.MaxThreshold(); got != 0.86 {
		t.Errorf("MaxThreshold = %v, want 0.86", got)
	}
}

func TestEmptyInstance(t *testing.T) {
	in := MustHeterogeneous(table1(), nil)
	if in.N() != 0 {
		t.Fatalf("N = %d, want 0", in.N())
	}
	if !in.Homogeneous() {
		t.Error("empty instance should count as homogeneous")
	}
	if in.MinThreshold() != 0 || in.MaxThreshold() != 0 {
		t.Error("empty instance min/max thresholds should be 0")
	}
}

func TestThresholdsCopy(t *testing.T) {
	src := []float64{0.5, 0.6}
	in := MustHeterogeneous(table1(), src)
	src[0] = 0.99
	if in.Threshold(0) != 0.5 {
		t.Error("instance aliases caller's threshold slice")
	}
	got := in.Thresholds()
	got[1] = 0.11
	if in.Threshold(1) != 0.6 {
		t.Error("Thresholds() exposes internal storage")
	}
}

func TestRelaxedDetection(t *testing.T) {
	// All bin confidences (min 0.8) >= max threshold 0.75 → relaxed.
	in := MustHomogeneous(table1(), 4, 0.75)
	if !in.Relaxed() {
		t.Error("instance with t=0.75 should be relaxed under Table 1 menu")
	}
	in2 := MustHomogeneous(table1(), 4, 0.95)
	if in2.Relaxed() {
		t.Error("instance with t=0.95 should not be relaxed")
	}
}

func TestInstanceTheta(t *testing.T) {
	in := MustHeterogeneous(table1(), []float64{0.5, 0.95})
	if got := in.Theta(0); math.Abs(got-Theta(0.5)) > 1e-15 {
		t.Errorf("Theta(0) = %v", got)
	}
	if got := in.Theta(1); math.Abs(got-Theta(0.95)) > 1e-15 {
		t.Errorf("Theta(1) = %v", got)
	}
}

func TestHomogeneousProperty(t *testing.T) {
	// Property: an instance built by NewHomogeneous is always Homogeneous,
	// and mutating one threshold via a rebuilt instance flips it.
	f := func(n uint8, tRaw float64) bool {
		nn := int(n%50) + 1
		tt := math.Mod(math.Abs(tRaw), 0.99)
		if math.IsNaN(tt) {
			tt = 0.5
		}
		in, err := NewHomogeneous(table1(), nn, tt)
		if err != nil {
			return false
		}
		return in.Homogeneous() && in.MinThreshold() == tt && in.MaxThreshold() == tt
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSolverFunc(t *testing.T) {
	s := SolverFunc{SolverName: "x", Fn: func(in *Instance) (*Plan, error) {
		return &Plan{}, nil
	}}
	if s.Name() != "x" {
		t.Errorf("Name = %q", s.Name())
	}
	p, err := s.Solve(nil)
	if err != nil || p == nil {
		t.Errorf("Solve = %v, %v", p, err)
	}
}
