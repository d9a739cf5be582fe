package cluster

// The consistent-hash ring no longer routes anything: the span fan-out
// that walked it is gone. It stays, with its property tests, as the one
// piece ROADMAP item 2 names a non-deletion exit for (whole-request cache
// affinity, parked); item 2(c) either uses it or deletes it with the rest
// of the package.

import "sort"

// DefaultVirtualNodes is the ring points each member contributes when
// NewRing is given none: enough for the ownership split across a
// handful of nodes to stay within a small factor of uniform.
const DefaultVirtualNodes = 64

// ringPoint is one virtual node on the hash circle.
type ringPoint struct {
	hash uint64
	node int // index into Ring.nodes
}

// Ring is an immutable consistent-hash ring over named nodes. Keys are
// 64-bit digests (the menu fingerprint digest, in this package); a key is
// owned by the first virtual node clockwise from it. Because every node
// hashes its own virtual points independently, removing a node only
// remaps the keys that node owned — the minimal-disruption property
// FuzzConsistentHashRouting pins. Safe for concurrent use.
type Ring struct {
	nodes  []string
	points []ringPoint
}

// NewRing builds a ring over the given node names (duplicates and empty
// names dropped) with vnodes virtual points per node; vnodes <= 0 selects
// DefaultVirtualNodes. A ring over zero nodes is valid and owns nothing.
func NewRing(nodes []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	seen := make(map[string]bool, len(nodes))
	r := &Ring{}
	for _, n := range nodes {
		if n == "" || seen[n] {
			continue
		}
		seen[n] = true
		r.nodes = append(r.nodes, n)
	}
	r.points = make([]ringPoint, 0, len(r.nodes)*vnodes)
	for i, n := range r.nodes {
		h := fnv64a(n)
		for v := 0; v < vnodes; v++ {
			// Derive each virtual point from the node hash and a counter
			// through a full-avalanche mix: stable across processes,
			// independent of the other members, and spread over the whole
			// circle. (An FNV fold of the counter is NOT enough — it
			// multiplies only the differing low byte once, packing every
			// virtual point of a node into one narrow arc.)
			r.points = append(r.points, ringPoint{hash: mix64(h + goldenGamma*uint64(v+1)), node: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		// Tie-break identical hashes by node name so the winner does not
		// depend on membership-slice order.
		return r.nodes[r.points[a].node] < r.nodes[r.points[b].node]
	})
	return r
}

// Nodes returns the ring members in insertion order. The slice is shared
// and read-only.
func (r *Ring) Nodes() []string { return r.nodes }

// Owner returns the node owning the key, or "" for an empty ring.
func (r *Ring) Owner(key uint64) string {
	if len(r.points) == 0 {
		return ""
	}
	return r.nodes[r.points[r.search(key)].node]
}

// Sequence returns every node exactly once, ordered by the clockwise ring
// walk from the key: the owner first, then each next-distinct successor.
// The distributor assigns span i of a request to Sequence(digest)[i % len],
// so small requests consistently land on the owner's warm cache and large
// requests use the whole cluster. The returned slice is owned by the
// caller.
func (r *Ring) Sequence(key uint64) []string {
	if len(r.points) == 0 {
		return nil
	}
	out := make([]string, 0, len(r.nodes))
	taken := make([]bool, len(r.nodes))
	for i, found := r.search(key), 0; found < len(r.nodes); i++ {
		p := r.points[i%len(r.points)]
		if !taken[p.node] {
			taken[p.node] = true
			out = append(out, r.nodes[p.node])
			found++
		}
	}
	return out
}

// search returns the index of the first point at or clockwise of the
// key's circle position, wrapping to 0 past the top. The key is pushed
// through the avalanche mix first: FNV-style digests that differ only in
// their final bytes (one menu at many thresholds, say) sit a few
// multiples of the FNV prime apart — a sliver of the circle — and would
// otherwise all land on one owner.
func (r *Ring) search(key uint64) int {
	h := mix64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		return 0
	}
	return i
}

// FNV-64a, inlined like opq's fingerprint hashing so ring placement never
// depends on hash/fnv internals.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnv64a(s string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

// goldenGamma is the splitmix64 increment (2^64 / φ, odd).
const goldenGamma = 0x9e3779b97f4a7c15

// mix64 is the splitmix64 finalizer: a full-avalanche bijection, so every
// input bit flips each output bit with probability ~1/2 — what keeps the
// virtual points of one node scattered around the circle.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
