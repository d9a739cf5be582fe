package opq

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/binset"
	"repro/internal/core"
)

var update = flag.Bool("update", false, "rewrite testdata/build_golden.txt from this checkout's Build")

const goldenPath = "testdata/build_golden.txt"

// buildCase is one (menu, threshold) input of Algorithm 2.
type buildCase struct {
	name string
	bins core.BinSet
	t    float64
}

// tieMenu decodes three bytes per bin — cardinality 1..24 (duplicates
// dropped), confidence in [0.5, 0.99], unit cost j/64 for j in 1..8 — into
// a menu of at most ten bins. Costs are cardinality × a dyadic unit, so unit
// costs and their sums are exact and distinct combinations tie on UC bit for
// bit, which is where the frontier's <= rules decide.
func tieMenu(data []byte) (core.BinSet, bool) {
	var bins []core.TaskBin
	seen := map[int]bool{}
	for i := 0; i+2 < len(data) && len(bins) < 10; i += 3 {
		card := 1 + int(data[i])%24
		if seen[card] {
			continue
		}
		seen[card] = true
		bins = append(bins, core.TaskBin{
			Cardinality: card,
			Confidence:  0.5 + 0.49*float64(data[i+1])/255,
			Cost:        float64(card) * float64(1+data[i+2]%8) / 64,
		})
	}
	if len(bins) == 0 {
		return core.BinSet{}, false
	}
	return core.MustBinSet(bins), true
}

// coldMenuThresholds draws one threshold per cell of [0.99, 0.999] the way
// benchmark/gen.go does for the cold-menu workload.
func coldMenuThresholds() []float64 {
	rng := rand.New(rand.NewSource(1))
	ts := make([]float64, 320)
	for i := range ts {
		ts[i] = 0.99 + 0.009*(float64(i)+rng.Float64())/float64(len(ts))
	}
	return ts
}

// goldenCorpus is the input set of TestBuildMatchesParentGolden: the paper's
// two menus at ten sizes and ten thresholds, SMIC-20 at cold-menu's 320
// thresholds, and 3,000 random menus with forced UC ties.
func goldenCorpus() []buildCase {
	var cases []buildCase
	for _, m := range []struct {
		name string
		menu func(int) core.BinSet
	}{{"jelly", binset.MustJelly}, {"smic", binset.MustSMIC}} {
		for size := 3; size <= 30; size += 3 {
			bins := m.menu(size)
			for _, t := range []float64{0.6, 0.7, 0.8, 0.85, 0.9, 0.93, 0.95, 0.97, 0.98, 0.99} {
				cases = append(cases, buildCase{fmt.Sprintf("%s%d@%v", m.name, size, t), bins, t})
			}
		}
	}
	smic20 := binset.MustSMIC(20)
	for _, t := range coldMenuThresholds() {
		cases = append(cases, buildCase{fmt.Sprintf("smic20@%v", t), smic20, t})
	}
	rng := rand.New(rand.NewSource(25))
	for len(cases) < 200+320+3000 {
		data := make([]byte, 3*(1+rng.Intn(10)))
		rng.Read(data)
		bins, ok := tieMenu(data)
		if !ok {
			continue
		}
		t := 0.5 + 0.499*rng.Float64()
		cases = append(cases, buildCase{fmt.Sprintf("tie%x@%v", data, t), bins, t})
	}
	return cases
}

// combUses returns the combination's per-cardinality assignment
// multiplicities {n_k}, keyed by bin cardinality.
func combUses(c *Comb) map[int]int {
	out := make(map[int]int)
	for i, n := range c.counts {
		if n > 0 {
			out[c.bins.At(i).Cardinality] = n
		}
	}
	return out
}

// queueDigest hashes everything a consumer can read off a queue: the
// threshold, the menu and each element's cardinality → multiplicity map,
// as the JSON Queue.MarshalJSON rendered when the golden was written, plus
// each element's LCM and the exact bits of UC and Mass.
func queueDigest(t testing.TB, q *Queue) string {
	t.Helper()
	form := struct {
		Threshold float64        `json:"threshold"`
		Bins      []core.TaskBin `json:"bins"`
		Combs     []map[int]int  `json:"combs"`
	}{Threshold: q.Threshold, Bins: q.bins.Bins()}
	for i := range q.Elems {
		form.Combs = append(form.Combs, combUses(&q.Elems[i]))
	}
	data, err := json.Marshal(form)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	h.Write(data)
	for _, e := range q.Elems {
		fmt.Fprintf(h, "%d %016x %016x\n", e.LCM, math.Float64bits(e.UC), math.Float64bits(e.Mass))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestBuildMatchesParentGolden pins Build's output to the enumeration it
// replaced: testdata/build_golden.txt holds one queueDigest per corpus case,
// written by running this test with -update on a checkout of commit 11a133b
// (the clone-per-node DFS with the stable-sort insert).
func TestBuildMatchesParentGolden(t *testing.T) {
	cases := goldenCorpus()
	got := make([]string, len(cases))
	for i, c := range cases {
		q, err := Build(c.bins, c.t)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got[i] = queueDigest(t, q)
	}
	if *update {
		if err := os.WriteFile(goldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(want) != len(got) {
		t.Fatalf("golden has %d lines, corpus has %d cases", len(want), len(got))
	}
	for i, c := range cases {
		if want[i] != got[i] {
			t.Errorf("%s: queue differs from the parent's (digest %s, golden %s)", c.name, got[i], want[i])
		}
	}
}
