package distgen

import (
	"math"
	"testing"
)

// moments are the statistics the generator tests assert on.
type moments struct{ Min, Max, Mean, StdDev float64 }

func momentsOf(ts []float64) moments {
	m := moments{Min: math.Inf(1), Max: math.Inf(-1)}
	for _, t := range ts {
		m.Min, m.Max = math.Min(m.Min, t), math.Max(m.Max, t)
		m.Mean += t / float64(len(ts))
	}
	for _, t := range ts {
		m.StdDev += (t - m.Mean) * (t - m.Mean) / float64(len(ts))
	}
	m.StdDev = math.Sqrt(m.StdDev)
	return m
}

func TestHomogeneous(t *testing.T) {
	ts := Homogeneous(5, 0.9)
	if len(ts) != 5 {
		t.Fatalf("len = %d", len(ts))
	}
	for _, v := range ts {
		if v != 0.9 {
			t.Fatalf("value %v, want 0.9", v)
		}
	}
	if got := Homogeneous(0, 0.5); len(got) != 0 {
		t.Error("Homogeneous(0) should be empty")
	}
}

func TestNormalStatistics(t *testing.T) {
	ts, err := Normal(20000, 0.9, 0.03, DefaultBounds, 7)
	if err != nil {
		t.Fatal(err)
	}
	s := momentsOf(ts)
	if math.Abs(s.Mean-0.9) > 0.005 {
		t.Errorf("mean = %v, want ≈0.9", s.Mean)
	}
	if math.Abs(s.StdDev-0.03) > 0.005 {
		t.Errorf("stddev = %v, want ≈0.03", s.StdDev)
	}
	if s.Min < DefaultBounds.Lo || s.Max > DefaultBounds.Hi {
		t.Errorf("bounds violated: [%v, %v]", s.Min, s.Max)
	}
}

func TestNormalDeterministic(t *testing.T) {
	a, _ := Normal(100, 0.9, 0.03, DefaultBounds, 42)
	b, _ := Normal(100, 0.9, 0.03, DefaultBounds, 42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different workloads")
		}
	}
	c, _ := Normal(100, 0.9, 0.03, DefaultBounds, 43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical workloads")
	}
}

func TestNormalRejectsBadInput(t *testing.T) {
	if _, err := Normal(10, 0.9, -1, DefaultBounds, 1); err == nil {
		t.Error("negative sigma accepted")
	}
	if _, err := Normal(10, 0.9, 0.03, Bounds{Lo: 0.9, Hi: 0.5}, 1); err == nil {
		t.Error("inverted bounds accepted")
	}
	if _, err := Normal(10, 0.9, 0.03, Bounds{Lo: 0, Hi: 1}, 1); err == nil {
		t.Error("hi = 1 accepted (infinite demand)")
	}
}

func TestUniformRange(t *testing.T) {
	ts, err := Uniform(5000, 0.6, 0.95, DefaultBounds, 9)
	if err != nil {
		t.Fatal(err)
	}
	s := momentsOf(ts)
	if s.Min < 0.6-1e-12 || s.Max > 0.95+1e-12 {
		t.Errorf("range violated: [%v, %v]", s.Min, s.Max)
	}
	if math.Abs(s.Mean-0.775) > 0.01 {
		t.Errorf("mean = %v, want ≈0.775", s.Mean)
	}
	if _, err := Uniform(10, 0.9, 0.5, DefaultBounds, 1); err == nil {
		t.Error("inverted range accepted")
	}
}

func TestHeavyTailedShape(t *testing.T) {
	ts, err := HeavyTailed(20000, 1.5, 0.02, DefaultBounds, 11)
	if err != nil {
		t.Fatal(err)
	}
	s := momentsOf(ts)
	if s.Max > DefaultBounds.Hi || s.Min < DefaultBounds.Lo {
		t.Errorf("bounds violated: [%v, %v]", s.Min, s.Max)
	}
	// Most mass should hug the upper bound; median well above the mean of
	// a symmetric distribution with the same range.
	aboveHalf := 0
	for _, v := range ts {
		if v > 0.9 {
			aboveHalf++
		}
	}
	if frac := float64(aboveHalf) / float64(len(ts)); frac < 0.5 {
		t.Errorf("only %v of heavy-tailed mass above 0.9; want most", frac)
	}
	if _, err := HeavyTailed(10, 0, 0.1, DefaultBounds, 1); err == nil {
		t.Error("alpha = 0 accepted")
	}
	if _, err := HeavyTailed(10, 1, -0.1, DefaultBounds, 1); err == nil {
		t.Error("negative scale accepted")
	}
}
