package core

import (
	"encoding/binary"
	"math"
	"testing"
	"testing/quick"
)

// table1 is the running-example bin menu of Table 1 in the paper:
// b1=<1,0.9,0.10>, b2=<2,0.85,0.18>, b3=<3,0.8,0.24>.
func table1() BinSet {
	return MustBinSet([]TaskBin{
		{Cardinality: 1, Confidence: 0.90, Cost: 0.10},
		{Cardinality: 2, Confidence: 0.85, Cost: 0.18},
		{Cardinality: 3, Confidence: 0.80, Cost: 0.24},
	})
}

func TestTable1Menu(t *testing.T) {
	bs := table1()
	if bs.Len() != 3 {
		t.Fatalf("Len = %d, want 3", bs.Len())
	}
	wantPerTask := []float64{0.10, 0.09, 0.08}
	wantConf := []float64{0.9, 0.85, 0.8}
	for i := 0; i < bs.Len(); i++ {
		b := bs.At(i)
		if b.Cardinality != i+1 {
			t.Errorf("At(%d).Cardinality = %d, want %d", i, b.Cardinality, i+1)
		}
		if perTask := b.Cost / float64(b.Cardinality); math.Abs(perTask-wantPerTask[i]) > 1e-12 {
			t.Errorf("bin %d per-task cost = %v, want %v", i+1, perTask, wantPerTask[i])
		}
		if b.Confidence != wantConf[i] {
			t.Errorf("bin %d confidence = %v, want %v", i+1, b.Confidence, wantConf[i])
		}
	}
}

func TestTaskBinWeight(t *testing.T) {
	// The paper's Example 5 quotes -ln(1-0.9) = 2.303.
	b := TaskBin{Cardinality: 1, Confidence: 0.9, Cost: 0.1}
	if got := b.Weight(); math.Abs(got-2.302585) > 1e-5 {
		t.Errorf("Weight(r=0.9) = %v, want 2.302585", got)
	}
	// And -ln(1-0.8) = 1.609, so 2×b3 gives 3.22 > 2.996 (Example 7).
	b3 := TaskBin{Cardinality: 3, Confidence: 0.8, Cost: 0.24}
	if got := 2 * b3.Weight(); math.Abs(got-3.2189) > 1e-3 {
		t.Errorf("2*Weight(r=0.8) = %v, want 3.219", got)
	}
}

func TestTaskBinValidate(t *testing.T) {
	cases := []struct {
		name string
		bin  TaskBin
		ok   bool
	}{
		{"valid", TaskBin{1, 0.9, 0.1}, true},
		{"zero cardinality", TaskBin{0, 0.9, 0.1}, false},
		{"negative cardinality", TaskBin{-2, 0.9, 0.1}, false},
		{"confidence zero", TaskBin{1, 0, 0.1}, false},
		{"confidence one", TaskBin{1, 1, 0.1}, false},
		{"confidence above one", TaskBin{1, 1.2, 0.1}, false},
		{"negative confidence", TaskBin{1, -0.5, 0.1}, false},
		{"zero cost", TaskBin{1, 0.9, 0}, false},
		{"negative cost", TaskBin{1, 0.9, -1}, false},
		{"nan cost", TaskBin{1, 0.9, math.NaN()}, false},
		{"infinite cost", TaskBin{1, 0.9, math.Inf(1)}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.bin.Validate()
			if (err == nil) != c.ok {
				t.Errorf("Validate(%+v) = %v, want ok=%v", c.bin, err, c.ok)
			}
		})
	}
}

func TestNewBinSetRejectsDuplicates(t *testing.T) {
	_, err := NewBinSet([]TaskBin{{1, 0.9, 0.1}, {1, 0.8, 0.05}})
	if err == nil {
		t.Fatal("NewBinSet accepted duplicate cardinalities")
	}
}

func TestNewBinSetSorts(t *testing.T) {
	bs, err := NewBinSet([]TaskBin{{3, 0.8, 0.24}, {1, 0.9, 0.1}, {2, 0.85, 0.18}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < bs.Len(); i++ {
		if bs.At(i).Cardinality != i+1 {
			t.Fatalf("bins not sorted: At(%d).Cardinality = %d", i, bs.At(i).Cardinality)
		}
	}
}

func TestByCardinality(t *testing.T) {
	bs := table1()
	for l := 1; l <= 3; l++ {
		b, ok := bs.ByCardinality(l)
		if !ok || b.Cardinality != l {
			t.Errorf("ByCardinality(%d) = %+v, %v", l, b, ok)
		}
	}
	if _, ok := bs.ByCardinality(4); ok {
		t.Error("ByCardinality(4) found a bin in a 3-bin menu")
	}
	if _, ok := bs.ByCardinality(0); ok {
		t.Error("ByCardinality(0) found a bin")
	}
}

func TestTruncate(t *testing.T) {
	bs := table1()
	for maxCard, wantLen := range map[int]int{0: 0, 1: 1, 2: 2, 3: 3, 10: 3} {
		got := bs.Truncate(maxCard)
		if got.Len() != wantLen {
			t.Errorf("Truncate(%d).Len = %d, want %d", maxCard, got.Len(), wantLen)
		}
		if got.Len() > 0 && got.MaxCardinality() > maxCard {
			t.Errorf("Truncate(%d) kept cardinality %d", maxCard, got.MaxCardinality())
		}
	}
}

func TestMinMaxWeightAndConfidence(t *testing.T) {
	bs := table1()
	if got, want := bs.MinWeight(), -math.Log1p(-0.8); math.Abs(got-want) > 1e-12 {
		t.Errorf("MinWeight = %v, want %v", got, want)
	}
	if got := bs.MinConfidence(); got != 0.8 {
		t.Errorf("MinConfidence = %v, want 0.8", got)
	}
	empty := BinSet{}
	if !math.IsInf(empty.MinWeight(), 1) {
		t.Error("empty MinWeight should be +Inf")
	}
	if empty.MaxCardinality() != 0 {
		t.Error("empty MaxCardinality should be 0")
	}
}

func TestThetaRoundTrip(t *testing.T) {
	f := func(raw float64) bool {
		// Map arbitrary float into [0, 0.9999].
		t01 := math.Mod(math.Abs(raw), 1)
		if math.IsNaN(t01) || t01 >= 0.9999 {
			t01 = 0.5
		}
		theta := Theta(t01)
		back := ThresholdFromTheta(theta)
		return theta >= 0 && math.Abs(back-t01) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestThetaMonotone(t *testing.T) {
	prev := -1.0
	for tt := 0.0; tt < 0.999; tt += 0.001 {
		th := Theta(tt)
		if th <= prev {
			t.Fatalf("Theta not strictly increasing at t=%v", tt)
		}
		prev = th
	}
}

func TestThetaKnownValues(t *testing.T) {
	// Paper Example 5: -ln(1-0.95) = 2.996.
	if got := Theta(0.95); math.Abs(got-2.9957) > 1e-3 {
		t.Errorf("Theta(0.95) = %v, want 2.996", got)
	}
	// Paper Example 10: -ln(1-0.5) = 0.69, -ln(1-0.86) ≈ 1.97.
	if got := Theta(0.5); math.Abs(got-0.6931) > 1e-3 {
		t.Errorf("Theta(0.5) = %v, want 0.693", got)
	}
	if got := Theta(0.86); math.Abs(got-1.966) > 1e-2 {
		t.Errorf("Theta(0.86) = %v, want 1.97", got)
	}
}

func TestBinsReturnsCopy(t *testing.T) {
	bs := table1()
	got := bs.Bins()
	got[0].Cost = 999
	if bs.At(0).Cost == 999 {
		t.Error("Bins() exposed internal storage")
	}
}

// TestBinSetKey: a BinSet's key is its bins' cardinality, confidence bits
// and cost bits, whatever order the menu was given in; a one-unit or
// one-ulp change to any field of any bin changes it; the zero BinSet, the
// empty menu and an empty Truncate all key as ""; and a Truncate prefix
// keys as those bins given to NewBinSet.
func TestBinSetKey(t *testing.T) {
	bs := table1()
	bins := bs.Bins()
	want := ""
	for _, b := range bins {
		for _, v := range []uint64{uint64(b.Cardinality), math.Float64bits(b.Confidence), math.Float64bits(b.Cost)} {
			want += string(binary.BigEndian.AppendUint64(nil, v))
		}
	}
	if got := bs.Key(); got != want {
		t.Errorf("Table 1 key %x, want %x", got, want)
	}
	for _, order := range [][]int{{2, 1, 0}, {1, 2, 0}, {0, 2, 1}} {
		perm := make([]TaskBin, len(order))
		for i, j := range order {
			perm[i] = bins[j]
		}
		if got := MustBinSet(perm).Key(); got != want {
			t.Errorf("bins in order %v key %x, want %x", order, got, want)
		}
	}
	nudges := map[string]func(*TaskBin){
		"cardinality": func(b *TaskBin) { b.Cardinality += 10 },
		"confidence":  func(b *TaskBin) { b.Confidence = math.Nextafter(b.Confidence, 1) },
		"cost":        func(b *TaskBin) { b.Cost = math.Nextafter(b.Cost, 1) },
	}
	for i := range bins {
		for field, nudge := range nudges {
			moved := bs.Bins()
			nudge(&moved[i])
			if MustBinSet(moved).Key() == want {
				t.Errorf("bin %d: a one-step change to its %s keeps the key", i, field)
			}
		}
	}
	for name, s := range map[string]BinSet{"zero": {}, "empty": MustBinSet(nil), "truncated to nothing": bs.Truncate(0)} {
		if got := s.Key(); got != "" {
			t.Errorf("%s BinSet key %x, want \"\"", name, got)
		}
	}
	for k := 1; k <= 3; k++ {
		if got, want := bs.Truncate(k).Key(), MustBinSet(bins[:k]).Key(); got != want {
			t.Errorf("Truncate(%d) key %x, NewBinSet of the prefix %x", k, got, want)
		}
	}
}
