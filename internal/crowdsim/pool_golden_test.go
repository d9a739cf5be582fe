package crowdsim

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updatePoolGolden = flag.Bool("update", false, "rewrite testdata/pool_runbin.golden")

// TestPoolRunBinGolden pins the pooled RNG stream: a fixed seed, pool
// config and bin sequence must replay the outcomes (duration, answers)
// in testdata/pool_runbin.golden bit for bit. Run jobs with a pool_size
// and BENCH_scenarios.json's pooled cells replay this stream, so any
// change to the number or order of draws shows here first. The golden
// was generated by the release whose pool still carried worker
// qualification; regenerate only on a checkout whose stream is the
// reference:
//
//	go test ./internal/crowdsim -run TestPoolRunBinGolden -update
func TestPoolRunBinGolden(t *testing.T) {
	p := testPool(t, PoolConfig{Size: 40, SkillSigma: 0.03, SpammerFraction: 0.2}, 5)
	truth := make([]bool, 20)
	for i := range truth {
		truth[i] = i%3 != 1
	}
	pays := []float64{0.05, 0.08, 0.10}
	var got strings.Builder
	for i := 0; i < 60; i++ {
		card, pay, difficulty := 1+i%20, pays[i%3], DefaultDifficulty+i%3-1
		out := p.RunBin(card, pay, difficulty, truth)
		fmt.Fprintf(&got, "%d %.2f %d %d %t ", card, pay, difficulty, out.Duration.Nanoseconds(), out.Overtime)
		for _, a := range out.Answers {
			if a {
				got.WriteByte('1')
			} else {
				got.WriteByte('0')
			}
		}
		got.WriteByte('\n')
	}

	golden := filepath.Join("testdata", "pool_runbin.golden")
	if *updatePoolGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if got.String() != string(want) {
		t.Errorf("pooled outcomes drifted from %s\n--- got ---\n%s--- want ---\n%s", golden, got.String(), want)
	}
}
