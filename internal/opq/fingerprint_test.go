package opq

import (
	"encoding/binary"
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
	// digest must match.
	b := fpMenu(
		core.TaskBin{Cardinality: 2, Confidence: 0.85, Cost: 0.18},
		core.TaskBin{Cardinality: 1, Confidence: 0.9, Cost: 0.1},
	)
	if FingerprintDigest(a, 0.9) != FingerprintDigest(b, 0.9) {
		t.Fatal("digest depends on input order")
	}
	if FingerprintDigest(a, 0.9) != FingerprintDigest(a, 0.9) {
		t.Fatal("digest not deterministic")
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
	ref := FingerprintDigest(base, 0.9)
	for name, tc := range cases {
		if FingerprintDigest(tc.bins, tc.t) == ref {
			t.Errorf("%s: digest collision", name)
		}
	}
}

// TestFingerprintDigestMatchesFNV: the inlined FNV-64a must stay
// bit-identical to hash/fnv's over the same bytes — every bin's
// cardinality, confidence bits and cost bits big-endian, then the
// threshold's bits.
func TestFingerprintDigestMatchesFNV(t *testing.T) {
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
		if got, want := FingerprintDigest(menu, thr), referenceDigest(menu, thr); got != want {
			t.Fatalf("digest %016x, hash/fnv %016x", got, want)
		}
	}
}

// referenceDigest is the hash/fnv implementation the inlined one must
// stay bit-identical to.
func referenceDigest(bins core.BinSet, t float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	write := func(v uint64) {
		binary.BigEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, b := range bins.Bins() {
		write(uint64(b.Cardinality))
		write(math.Float64bits(b.Confidence))
		write(math.Float64bits(b.Cost))
	}
	write(math.Float64bits(t))
	return h.Sum64()
}
