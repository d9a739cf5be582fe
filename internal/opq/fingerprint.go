package opq

import (
	"encoding/binary"
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
// Fingerprint is not the service's cache key: the OPQ cache and the
// batcher both key by FingerprintDigest plus the menu length and the
// threshold's bits, and render nothing per request. The string stays the
// library's canonical form (slade.MenuFingerprint); its 16-hex-digit
// prefix, up to the first ':', is the digest the service's /metrics
// `key` label prints. The format "%016x:m%d:t%.6f" is pinned by
// TestFingerprintFormat. It is not written to disk.
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
// the string form — the per-request key the service's OPQ cache and
// batcher group by, where the string's strconv work would be pure
// overhead. Like the full fingerprint, equal digests of distinct key
// material are possible and must be confirmed against the full (menu,
// threshold) pair.
func FingerprintDigest(bins core.BinSet, t float64) uint64 {
	h := uint64(fnvOffset64)
	var buf [8]byte
	write := func(v uint64) {
		binary.BigEndian.PutUint64(buf[:], v)
		for _, c := range buf {
			h = (h ^ uint64(c)) * fnvPrime64
		}
	}
	for i := 0; i < bins.Len(); i++ { // At, not Bins(): no menu copy per key
		b := bins.At(i)
		write(uint64(b.Cardinality))
		write(math.Float64bits(b.Confidence))
		write(math.Float64bits(b.Cost))
	}
	write(math.Float64bits(t))
	return h
}
