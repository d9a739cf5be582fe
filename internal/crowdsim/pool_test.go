package crowdsim

import (
	"math"
	"testing"
)

func testPool(t *testing.T, cfg PoolConfig, seed int64) *Pool {
	t.Helper()
	pl := New(Jelly(), seed)
	p, err := NewPool(pl, cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewPoolValidation(t *testing.T) {
	pl := New(Jelly(), 1)
	if _, err := NewPool(pl, PoolConfig{Size: 0}, 1); err == nil {
		t.Error("zero-size pool accepted")
	}
	if _, err := NewPool(pl, PoolConfig{Size: 10, SpammerFraction: 1.5}, 1); err == nil {
		t.Error("spammer fraction > 1 accepted")
	}
}

// deliveredConfidence runs bins through the pool and returns the share of
// its in-time answers that were correct, checking that every bin answers
// each of its slots.
func deliveredConfidence(t *testing.T, p *Pool, cardinality int, pay float64, bins int) float64 {
	t.Helper()
	truth := make([]bool, cardinality+2) // RunBin answers only cardinality slots
	correct, total := 0, 0
	for b := 0; b < bins; b++ {
		out := p.RunBin(cardinality, pay, DefaultDifficulty, truth)
		if len(out.Answers) != cardinality || len(out.Correct) != cardinality {
			t.Fatalf("bin %d: %d answers, %d marks for cardinality %d", b, len(out.Answers), len(out.Correct), cardinality)
		}
		if out.Overtime {
			continue
		}
		for _, c := range out.Correct {
			total++
			if c {
				correct++
			}
		}
	}
	if total == 0 {
		t.Fatal("every bin ran overtime")
	}
	return float64(correct) / float64(total)
}

// TestPoolDeliveredConfidence is the headline pool property: skill offsets
// average out, so a spammer-free pool delivers the model confidence, while
// a pool of spammers delivers a coin flip.
func TestPoolDeliveredConfidence(t *testing.T) {
	model := New(Jelly(), 99).TrueConfidence(5, 0.10, DefaultDifficulty)
	honest := testPool(t, PoolConfig{Size: 200, SkillSigma: 0.02}, 11)
	if got := deliveredConfidence(t, honest, 5, 0.10, 600); math.Abs(got-model) > 0.02 {
		t.Errorf("honest pool delivered %v, model %v", got, model)
	}
	spammers := testPool(t, PoolConfig{Size: 200, SkillSigma: 0.02, SpammerFraction: 1}, 11)
	if got := deliveredConfidence(t, spammers, 5, 0.10, 600); math.Abs(got-0.5) > 0.04 {
		t.Errorf("spammer pool delivered %v, want ≈0.5", got)
	}
}
