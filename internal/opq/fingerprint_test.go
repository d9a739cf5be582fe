package opq

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
)

func fpMenu(bins ...core.TaskBin) core.BinSet { return core.MustBinSet(bins) }

func TestFingerprintStableAndOrderInsensitive(t *testing.T) {
	a := fpMenu(
		core.TaskBin{Cardinality: 1, Confidence: 0.9, Cost: 0.1},
		core.TaskBin{Cardinality: 2, Confidence: 0.85, Cost: 0.18},
	)
	// Same bins given in the other order: NewBinSet canonicalizes, so the
	// fingerprint must match.
	b := fpMenu(
		core.TaskBin{Cardinality: 2, Confidence: 0.85, Cost: 0.18},
		core.TaskBin{Cardinality: 1, Confidence: 0.9, Cost: 0.1},
	)
	if Fingerprint(a, 0.9) != Fingerprint(b, 0.9) {
		t.Fatal("fingerprint depends on input order")
	}
	if Fingerprint(a, 0.9) != Fingerprint(a, 0.9) {
		t.Fatal("fingerprint not deterministic")
	}
}

func TestFingerprintDistinguishes(t *testing.T) {
	base := fpMenu(
		core.TaskBin{Cardinality: 1, Confidence: 0.9, Cost: 0.1},
		core.TaskBin{Cardinality: 2, Confidence: 0.85, Cost: 0.18},
	)
	cases := map[string]struct {
		bins core.BinSet
		t    float64
	}{
		"different threshold": {base, 0.95},
		"different cost": {fpMenu(
			core.TaskBin{Cardinality: 1, Confidence: 0.9, Cost: 0.11},
			core.TaskBin{Cardinality: 2, Confidence: 0.85, Cost: 0.18},
		), 0.9},
		"different confidence": {fpMenu(
			core.TaskBin{Cardinality: 1, Confidence: 0.91, Cost: 0.1},
			core.TaskBin{Cardinality: 2, Confidence: 0.85, Cost: 0.18},
		), 0.9},
		"different cardinality": {fpMenu(
			core.TaskBin{Cardinality: 1, Confidence: 0.9, Cost: 0.1},
			core.TaskBin{Cardinality: 3, Confidence: 0.85, Cost: 0.18},
		), 0.9},
		"fewer bins": {fpMenu(
			core.TaskBin{Cardinality: 1, Confidence: 0.9, Cost: 0.1},
		), 0.9},
	}
	ref := Fingerprint(base, 0.9)
	for name, tc := range cases {
		if Fingerprint(tc.bins, tc.t) == ref {
			t.Errorf("%s: fingerprint collision", name)
		}
	}
}

// TestFingerprintFormat pins the rendered key to the "%016x:m%d:t%.6f"
// layout: the hand-rolled append path must stay byte-identical to the fmt
// form, because the service splits the cache key at the first ':' to get
// the `key` label on /metrics, and dashboards keyed by that label would
// silently lose their series on a drift.
func TestFingerprintFormat(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		nBins := 1 + rng.Intn(12)
		bins := make([]core.TaskBin, nBins)
		for j := range bins {
			bins[j] = core.TaskBin{
				Cardinality: j + 1,
				Confidence:  0.5 + rng.Float64()*0.45,
				Cost:        0.01 + rng.Float64(),
			}
		}
		menu := core.MustBinSet(bins)
		thr := rng.Float64() * 0.999
		got := Fingerprint(menu, thr)
		if want := referenceFingerprint(menu, thr); got != want {
			t.Fatalf("fingerprint %q, reference %q", got, want)
		}
	}
}

// referenceFingerprint is the original hash/fnv + fmt implementation the
// hot-path version must stay byte-identical to.
func referenceFingerprint(bins core.BinSet, t float64) string {
	h := fnv.New64a()
	var buf [8]byte
	writeF64 := func(v float64) {
		binary.BigEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	for _, b := range bins.Bins() {
		binary.BigEndian.PutUint64(buf[:], uint64(b.Cardinality))
		h.Write(buf[:])
		writeF64(b.Confidence)
		writeF64(b.Cost)
	}
	writeF64(t)
	return fmt.Sprintf("%016x:m%d:t%.6f", h.Sum64(), bins.Len(), t)
}
