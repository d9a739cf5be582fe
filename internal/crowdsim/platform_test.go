package crowdsim

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestConfidenceDeclinesWithCardinality(t *testing.T) {
	for _, params := range []Params{Jelly(), SMIC()} {
		pl := New(params, 1)
		prev := 2.0
		for l := 2; l <= 30; l++ {
			c := pl.TrueConfidence(l, params.RefPay, DefaultDifficulty)
			if c > prev+1e-12 {
				t.Errorf("%s: confidence rose at cardinality %d", params.Name, l)
			}
			prev = c
		}
	}
}

func TestJellyConfidenceEndpoints(t *testing.T) {
	// Section 2: Jelly confidence declines from 0.981 (l=2) to 0.783 (l=30)
	// at the top pay tier.
	pl := New(Jelly(), 1)
	if got := pl.TrueConfidence(2, 0.10, DefaultDifficulty); math.Abs(got-0.981) > 1e-9 {
		t.Errorf("confidence(2, $0.1) = %v, want 0.981", got)
	}
	if got := pl.TrueConfidence(30, 0.10, DefaultDifficulty); math.Abs(got-0.783) > 1e-3 {
		t.Errorf("confidence(30, $0.1) = %v, want 0.783", got)
	}
}

func TestSMICLowerThanJelly(t *testing.T) {
	// "the general confidence is only 0.7 for the SMIC tasks".
	j := New(Jelly(), 1)
	s := New(SMIC(), 1)
	for l := 2; l <= 30; l += 4 {
		cj := j.TrueConfidence(l, 0.10, DefaultDifficulty)
		cs := s.TrueConfidence(l, 0.10, DefaultDifficulty)
		if cs >= cj {
			t.Errorf("SMIC confidence %v ≥ Jelly %v at cardinality %d", cs, cj, l)
		}
	}
}

func TestPayLowersConfidenceMildly(t *testing.T) {
	pl := New(Jelly(), 1)
	hi := pl.TrueConfidence(10, 0.10, DefaultDifficulty)
	lo := pl.TrueConfidence(10, 0.05, DefaultDifficulty)
	if lo >= hi {
		t.Error("cheaper bins should have (slightly) lower confidence")
	}
	if hi-lo > 0.05 {
		t.Errorf("pay effect %v too strong; the paper observes mild sensitivity", hi-lo)
	}
}

func TestDifficultyShiftsCurve(t *testing.T) {
	pl := New(Jelly(), 1)
	easy := pl.TrueConfidence(10, 0.10, 1)
	mid := pl.TrueConfidence(10, 0.10, 2)
	hard := pl.TrueConfidence(10, 0.10, 3)
	if !(easy > mid && mid > hard) {
		t.Errorf("difficulty ordering broken: %v, %v, %v", easy, mid, hard)
	}
}

func TestInTimeBoundariesMatchFigure3a(t *testing.T) {
	// Figure 3a: at $0.05 bins beyond cardinality ≈14 are overtime, at
	// $0.08 beyond ≈24, and $0.10 reaches 30. Allow ±2 cardinalities.
	pl := New(Jelly(), 1)
	cases := []struct {
		pay  float64
		want int
	}{{0.05, 14}, {0.08, 24}, {0.10, 30}}
	for _, c := range cases {
		got := pl.MaxInTimeCardinality(c.pay)
		if got < c.want-2 || got > c.want+2 {
			t.Errorf("MaxInTimeCardinality($%.2f) = %d, want ≈%d", c.pay, got, c.want)
		}
	}
}

func TestMinInTimePayInvertsBoundary(t *testing.T) {
	pl := New(Jelly(), 1)
	for l := 1; l <= 30; l++ {
		pay := pl.MinInTimePay(l)
		if pl.ExpectedDuration(l, pay) > pl.Params().Deadline {
			t.Errorf("cardinality %d: pay %v still misses the deadline", l, pay)
		}
		// One cent less must miss the deadline (when pay > 1 cent).
		if pay > 0.011 {
			if pl.ExpectedDuration(l, pay-0.01) <= pl.Params().Deadline {
				t.Errorf("cardinality %d: pay %v is not minimal", l, pay)
			}
		}
	}
}

func TestExpectedDurationMonotone(t *testing.T) {
	pl := New(Jelly(), 1)
	if pl.ExpectedDuration(10, 0.05) <= pl.ExpectedDuration(10, 0.10) {
		t.Error("cheaper bins should take longer")
	}
	if pl.ExpectedDuration(20, 0.10) <= pl.ExpectedDuration(10, 0.10) {
		t.Error("bigger bins should take longer")
	}
	if pl.ExpectedDuration(10, 0) != time.Duration(math.MaxInt64) {
		t.Error("zero pay should never complete")
	}
}

func TestRunBinStatistics(t *testing.T) {
	pl := New(Jelly(), 42)
	const trials = 4000
	correct, total := 0, 0
	for i := 0; i < trials; i++ {
		truth := []bool{true, false, true, false, true}
		out := pl.RunBin(5, 0.10, DefaultDifficulty, truth)
		if out.Overtime {
			continue
		}
		for j, c := range out.Correct {
			total++
			if c {
				correct++
				if out.Answers[j] != truth[j] {
					t.Fatal("Correct=true but answer mismatches truth")
				}
			} else if out.Answers[j] == truth[j] {
				t.Fatal("Correct=false but answer matches truth")
			}
		}
	}
	want := pl.TrueConfidence(5, 0.10, DefaultDifficulty)
	got := float64(correct) / float64(total)
	if math.Abs(got-want) > 0.02 {
		t.Errorf("empirical confidence %v, model %v", got, want)
	}
}

func TestRunBinTruncatesOversizedTruth(t *testing.T) {
	pl := New(Jelly(), 7)
	out := pl.RunBin(2, 0.10, DefaultDifficulty, []bool{true, false, true, true})
	if len(out.Answers) != 2 {
		t.Errorf("answers = %d, want 2 (cardinality)", len(out.Answers))
	}
}

func TestProbeEstimatesConfidence(t *testing.T) {
	pl := New(Jelly(), 5)
	res := pl.Probe(10, 0.10, DefaultDifficulty, 400)
	want := pl.TrueConfidence(10, 0.10, DefaultDifficulty)
	if math.Abs(res.MeanConfidence-want) > 0.03 {
		t.Errorf("probe confidence %v, model %v", res.MeanConfidence, want)
	}
	if res.OvertimeRate > 0.2 {
		t.Errorf("overtime rate %v too high at the top pay tier", res.OvertimeRate)
	}
}

func TestProbeAllOvertime(t *testing.T) {
	pl := New(Jelly(), 5)
	// Cardinality 30 at $0.01: expected duration 405 min >> 40 min deadline.
	res := pl.Probe(30, 0.01, DefaultDifficulty, 50)
	if res.OvertimeRate < 0.99 {
		t.Errorf("overtime rate %v, want ≈1", res.OvertimeRate)
	}
	if !math.IsNaN(res.MeanConfidence) {
		t.Errorf("confidence should be NaN with no answers, got %v", res.MeanConfidence)
	}
}

func TestDeterministicForSeed(t *testing.T) {
	a := New(Jelly(), 1234).Probe(8, 0.08, DefaultDifficulty, 100)
	b := New(Jelly(), 1234).Probe(8, 0.08, DefaultDifficulty, 100)
	if a.MeanConfidence != b.MeanConfidence || a.OvertimeRate != b.OvertimeRate {
		t.Error("same seed produced different probe results")
	}
}

// TestRunBinReplaysIdentically is the reproducibility contract run jobs
// rely on: two platforms with the same seed replay an identical sequence
// of bin outcomes, answer by answer.
func TestRunBinReplaysIdentically(t *testing.T) {
	a, b := New(Jelly(), 99), New(Jelly(), 99)
	truth := []bool{true, false, true, true, false}
	for i := 0; i < 50; i++ {
		oa := a.RunBin(5, 0.08, DefaultDifficulty, truth)
		ob := b.RunBin(5, 0.08, DefaultDifficulty, truth)
		if oa.Duration != ob.Duration || oa.Overtime != ob.Overtime {
			t.Fatalf("call %d: durations diverged: %v vs %v", i, oa.Duration, ob.Duration)
		}
		for j := range oa.Answers {
			if oa.Answers[j] != ob.Answers[j] {
				t.Fatalf("call %d answer %d diverged", i, j)
			}
		}
	}
}

// TestPlatformConcurrentUse drives RunBin and Probe from many goroutines;
// the -race CI job turns any unguarded RNG access into a failure.
func TestPlatformConcurrentUse(t *testing.T) {
	pl := New(Jelly(), 5)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			truth := []bool{true, false, true}
			for i := 0; i < 30; i++ {
				pl.RunBin(3, 0.1, DefaultDifficulty, truth)
			}
			pl.Probe(3, 0.1, DefaultDifficulty, 5)
		}()
	}
	wg.Wait()
}
