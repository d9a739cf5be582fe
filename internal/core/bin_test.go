package core

import (
	"encoding/binary"
	"hash/fnv"
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

// TestBinSetDigest: the digest a BinSet carries from its constructor is
// hash/fnv's FNV-64a over its bins in menu order (cardinality, confidence
// bits and cost bits, each eight big-endian bytes); the zero BinSet, the
// empty menu and an empty Truncate all digest as the offset basis, and a
// Truncate prefix digests as those bins given to NewBinSet.
func TestBinSetDigest(t *testing.T) {
	ref := func(bins []TaskBin) uint64 {
		h := fnv.New64a()
		for _, b := range bins {
			for _, v := range []uint64{uint64(b.Cardinality), math.Float64bits(b.Confidence), math.Float64bits(b.Cost)} {
				h.Write(binary.BigEndian.AppendUint64(nil, v))
			}
		}
		return h.Sum64()
	}
	bs := table1()
	if got, want := bs.Digest(), ref(bs.Bins()); got != want {
		t.Errorf("Table 1 digest %016x, hash/fnv %016x", got, want)
	}
	empty := ref(nil)
	for name, s := range map[string]BinSet{"zero": {}, "empty": MustBinSet(nil), "truncated to nothing": bs.Truncate(0)} {
		if got := s.Digest(); got != empty {
			t.Errorf("%s BinSet digest %016x, want the empty menu's %016x", name, got, empty)
		}
	}
	if got, want := bs.Truncate(2).Digest(), MustBinSet(bs.Bins()[:2]).Digest(); got != want {
		t.Errorf("Truncate(2) digest %016x, NewBinSet of the prefix %016x", got, want)
	}
}
