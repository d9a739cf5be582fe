package opq

import (
	"math"

	"repro/internal/core"
)

// FNV-64a parameters (hash/fnv's), inlined so the hot path hashes
// without interface dispatch; the digest values are identical.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// FingerprintDigest returns an FNV-64a digest of the exact (menu,
// threshold bits) pair: the menu's bins in ascending-cardinality order
// (the canonical BinSet order), then the bit pattern of t. Equal pairs
// share it; distinct pairs collide only with 64-bit-hash probability, so a
// caller keying by it confirms a hit against the full pair. It does not
// name a queue: the thresholds of one Piece build one queue under
// different digests. The batcher and the OPQ cache's in-flight builds key
// by it plus the menu length and the threshold's bits.
func FingerprintDigest(bins core.BinSet, t float64) uint64 {
	return FoldThreshold(MenuDigest(bins), t)
}

// MenuDigest is the FNV-64a digest of the menu alone: every bin's
// cardinality, confidence bits and cost bits, in menu order. The service's
// OPQ cache groups a menu's queues under it.
func MenuDigest(bins core.BinSet) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < bins.Len(); i++ { // At, not Bins(): no menu copy per key
		b := bins.At(i)
		h = fnvWrite(h, uint64(b.Cardinality))
		h = fnvWrite(h, math.Float64bits(b.Confidence))
		h = fnvWrite(h, math.Float64bits(b.Cost))
	}
	return h
}

// FoldThreshold continues a menu digest over the bits of t, giving
// FingerprintDigest(bins, t) from MenuDigest(bins).
func FoldThreshold(menu uint64, t float64) uint64 {
	return fnvWrite(menu, math.Float64bits(t))
}

// fnvWrite folds v's eight big-endian bytes into the FNV-64a state h.
func fnvWrite(h, v uint64) uint64 {
	for shift := 56; shift >= 0; shift -= 8 {
		h = (h ^ (v >> shift & 0xff)) * fnvPrime64
	}
	return h
}
