package opq

import (
	"math"
	"strconv"

	"repro/internal/core"
)

// FNV-64a parameters (hash/fnv's), inlined so the hot path hashes
// without interface dispatch; the digest values are identical.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Fingerprint returns a compact key for the queue opq.Build(bins, t)
// would construct: an FNV-64a digest over the menu's bins (in
// ascending-cardinality order, the canonical BinSet order) and the exact bit
// pattern of the threshold. Identical (menu, threshold) pairs always share a
// fingerprint; distinct pairs collide only with 64-bit-hash probability, so
// callers using it as a cache key must confirm a hit against the full key
// material.
//
// Fingerprint is not the service's cache key. The OPQ cache keeps each
// menu's queues under MenuDigest plus the menu length, each queue valid on
// a Piece of thresholds; the batcher, and the cache's in-flight builds,
// key by FingerprintDigest plus the menu length and the threshold's bits.
// Neither renders anything per request. The string stays the library's
// canonical form (slade.MenuFingerprint); its format "%016x:m%d:t%.6f" is
// pinned by TestFingerprintFormat. It is not written to disk.
func Fingerprint(bins core.BinSet, t float64) string {
	const hexdigits = "0123456789abcdef"
	sum := FingerprintDigest(bins, t)
	out := make([]byte, 0, 48)
	for shift := 60; shift >= 0; shift -= 4 { // %016x
		out = append(out, hexdigits[(sum>>shift)&0xf])
	}
	out = append(out, ':', 'm')
	out = strconv.AppendInt(out, int64(bins.Len()), 10)
	out = append(out, ':', 't')
	out = strconv.AppendFloat(out, t, 'f', 6, 64)
	return string(out)
}

// FingerprintDigest returns Fingerprint's 64-bit digest without rendering
// the string form: FoldThreshold(MenuDigest(bins), t). Like the full
// fingerprint, equal digests of distinct key material are possible and
// must be confirmed against the full (menu, threshold) pair.
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
