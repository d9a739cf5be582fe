package opq

import (
	"math"

	"repro/internal/core"
)

// FingerprintDigest returns an FNV-64a digest of the exact (menu,
// threshold bits) pair: the menu's digest (core.BinSet.Digest, over the
// bins in their canonical ascending-cardinality order) continued over the
// bit pattern of t. Equal pairs share it; distinct pairs collide only with
// 64-bit-hash probability, so a caller keying by it confirms a hit against
// the full pair. It does not name a queue: the thresholds of one Piece
// build one queue under different digests. The batcher and the OPQ cache's
// in-flight builds key by it plus the menu length and the threshold's bits.
func FingerprintDigest(bins core.BinSet, t float64) uint64 {
	return FoldThreshold(bins.Digest(), t)
}

// FoldThreshold continues a menu digest over the bits of t, giving
// FingerprintDigest(bins, t) from bins.Digest().
func FoldThreshold(menu uint64, t float64) uint64 {
	return core.FoldFNV(menu, math.Float64bits(t))
}
