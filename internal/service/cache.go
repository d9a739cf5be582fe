// Package service is the serving layer of the SLADE reproduction: a
// long-running decomposition service that amortizes Optimal Priority Queue
// construction across requests (OPQCache), solves each request once over
// a cached queue behind a service-wide bound on concurrent solves
// (ShardedSolver), and runs asynchronous decomposition jobs
// (JobManager) — the seam the cmd/sladed HTTP daemon exposes.
package service

import (
	"container/list"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/opq"
)

// DefaultCacheSize is the queue-cache capacity used when Config.CacheSize
// is zero. Each entry is one built Optimal Priority Queue — small (a Pareto
// frontier of combinations), so the default is generous.
const DefaultCacheSize = 128

// CacheStats is a snapshot of OPQCache effectiveness counters.
type CacheStats struct {
	// Hits counts Get calls answered from the cache.
	Hits uint64 `json:"hits"`
	// Misses counts Get calls that had to build (or wait for) a queue.
	Misses uint64 `json:"misses"`
	// Builds counts actual opq.Build invocations — with coalescing this is
	// at most one per distinct (menu, threshold) key ever resident.
	Builds uint64 `json:"builds"`
	// Coalesced counts Get calls that piggybacked on an in-flight build
	// instead of starting their own.
	Coalesced uint64 `json:"coalesced"`
	// Evictions counts entries dropped by the LRU policy.
	Evictions uint64 `json:"evictions"`
	// Entries is the current number of resident queues.
	Entries int `json:"entries"`
}

// BuildFunc constructs a queue for a menu and threshold; opq.Build is the
// production implementation. Tests inject counting or failing variants.
type BuildFunc func(bins core.BinSet, t float64) (*opq.Queue, error)

// OPQCache is a concurrency-safe LRU cache of Optimal Priority Queues keyed
// by the (menu, threshold) pair's queueKey. Concurrent Gets for the
// same missing key coalesce into a single build: the first caller runs
// Algorithm 2, the rest block until it finishes and share the result.
// Queues are read-only after construction, so sharing is safe.
type OPQCache struct {
	mu       sync.Mutex
	capacity int
	build    BuildFunc
	ll       *list.List                 // front = most recently used
	byKey    map[queueKey]*list.Element // → *cacheEntry element
	inflight map[queueKey]*inflightBuild
	stats    CacheStats
	// keyed tracks per-key traffic for resident and in-flight keys; an
	// evicted (or failed-build) key's counters fold into folded so the
	// map stays bounded by the cache capacity plus in-flight builds.
	keyed  map[queueKey]*keyCounters
	folded KeyCacheStats
}

// queueKey identifies the queue opq.Build(bins, t) would construct, for
// the cache and the batcher alike: the menu's fingerprint digest, its
// length and the threshold's bit pattern (bits, not the float, so a NaN
// key still finds itself in a map). It costs no rendering per request;
// a digest match is only probable identity, so both users confirm it
// against the full key material (sameKey).
type queueKey struct {
	digest  uint64
	menuLen int
	tbits   uint64
}

// keyOf returns the queueKey of (bins, t).
func keyOf(bins core.BinSet, t float64) queueKey {
	return queueKey{digest: opq.FingerprintDigest(bins, t), menuLen: bins.Len(), tbits: math.Float64bits(t)}
}

// keyCounters is the live per-key traffic record behind KeyMetrics.
// Guarded by OPQCache.mu except for the build histogram, which is
// internally atomic (built outside the lock, observed under it).
type keyCounters struct {
	hits, misses, builds uint64
	build                *obs.Histogram // lazily created on first build
}

// KeyCacheStats is one key's slice of cache traffic, as reported by
// KeyMetrics. Key is the key's fingerprint digest in hex, suitable as a
// metric label (the exposition merges series on the rare digest
// collision).
type KeyCacheStats struct {
	// Key is the 16-hex-digit fingerprint digest, or "" for the
	// aggregated remainder.
	Key string
	// Hits, Misses and Builds mirror the global CacheStats counters,
	// scoped to this key. Coalesced Gets count as misses here.
	Hits, Misses, Builds uint64
	// Build is the build-latency distribution for this key (zero-valued
	// when the key has never been built).
	Build obs.HistogramSnapshot
}

// cacheEntry is one resident queue. The full (bins, threshold) key is kept
// alongside the digest key so a hash collision is detected on hit instead
// of silently serving a queue built for a different menu.
type cacheEntry struct {
	key       queueKey
	bins      core.BinSet
	threshold float64
	queue     *opq.Queue
}

// inflightBuild tracks a build in progress; waiters block on done.
type inflightBuild struct {
	bins      core.BinSet
	threshold float64
	done      chan struct{}
	queue     *opq.Queue
	err       error
}

// NewOPQCache returns a cache holding at most capacity queues
// (DefaultCacheSize when capacity <= 0), building misses with opq.Build.
func NewOPQCache(capacity int) *OPQCache {
	return NewOPQCacheWithBuilder(capacity, opq.Build)
}

// NewOPQCacheWithBuilder is NewOPQCache with an injectable build function.
func NewOPQCacheWithBuilder(capacity int, build BuildFunc) *OPQCache {
	if capacity <= 0 {
		capacity = DefaultCacheSize
	}
	return &OPQCache{
		capacity: capacity,
		build:    build,
		ll:       list.New(),
		byKey:    make(map[queueKey]*list.Element),
		inflight: make(map[queueKey]*inflightBuild),
		keyed:    make(map[queueKey]*keyCounters),
	}
}

// keyCountersLocked returns (creating if needed) the traffic record for
// key. Caller holds c.mu.
func (c *OPQCache) keyCountersLocked(key queueKey) *keyCounters {
	kc, ok := c.keyed[key]
	if !ok {
		kc = &keyCounters{}
		c.keyed[key] = kc
	}
	return kc
}

// foldKeyLocked folds key's counters into the aggregated remainder and
// drops the live record. Caller holds c.mu.
func (c *OPQCache) foldKeyLocked(key queueKey) {
	kc, ok := c.keyed[key]
	if !ok {
		return
	}
	delete(c.keyed, key)
	c.folded.Hits += kc.hits
	c.folded.Misses += kc.misses
	c.folded.Builds += kc.builds
	if kc.build != nil {
		c.folded.Build = c.folded.Build.Add(kc.build.Snapshot())
	}
}

// Get returns the queue for (bins, t), building it on first use. Errors are
// not cached: every Get for a failing key re-attempts the build (concurrent
// callers still share one attempt). A digest collision (distinct key
// material, equal digest) is detected against the stored full key and
// served by an uncached direct build, never by the colliding entry.
// Safe for concurrent use; builds run outside the cache lock, so Gets for
// other keys never block behind Algorithm 2. The returned queue is shared
// and must be treated as read-only.
func (c *OPQCache) Get(bins core.BinSet, t float64) (*opq.Queue, error) {
	key := keyOf(bins, t)

	c.mu.Lock()
	if el, ok := c.byKey[key]; ok {
		e := el.Value.(*cacheEntry)
		if !sameKey(e.bins, e.threshold, bins, t) {
			c.mu.Unlock()
			return c.build(bins, t) // collision: bypass the cache entirely
		}
		c.stats.Hits++
		c.keyCountersLocked(key).hits++
		c.ll.MoveToFront(el)
		q := e.queue
		c.mu.Unlock()
		return q, nil
	}
	if fl, ok := c.inflight[key]; ok {
		if !sameKey(fl.bins, fl.threshold, bins, t) {
			c.mu.Unlock()
			return c.build(bins, t)
		}
		c.stats.Coalesced++
		c.keyCountersLocked(key).misses++ // not served from cache
		c.mu.Unlock()
		<-fl.done
		return fl.queue, fl.err
	}
	c.stats.Misses++
	c.keyCountersLocked(key).misses++
	fl := &inflightBuild{bins: bins, threshold: t, done: make(chan struct{})}
	c.inflight[key] = fl
	c.mu.Unlock()

	// Algorithm 2 runs outside the lock: other keys stay servable and
	// same-key callers coalesce onto fl.
	buildStart := time.Now()
	q, err := c.build(bins, t)
	buildDur := time.Since(buildStart)

	c.mu.Lock()
	c.stats.Builds++
	kc := c.keyCountersLocked(key)
	kc.builds++
	if kc.build == nil {
		kc.build = obs.NewLatencyHistogram()
	}
	kc.build.ObserveDuration(buildDur)
	delete(c.inflight, key)
	if err == nil {
		c.insertLocked(key, bins, t, q)
	} else if _, resident := c.byKey[key]; !resident {
		// A key that only ever fails to build would otherwise pin a live
		// record forever; fold it so the keyed map stays bounded.
		c.foldKeyLocked(key)
	}
	c.mu.Unlock()

	fl.queue, fl.err = q, err
	close(fl.done)
	return q, err
}

// sameKey reports whether two (menu, threshold) pairs are identical — the
// collision check behind the digest key.
func sameKey(aBins core.BinSet, aT float64, bBins core.BinSet, bT float64) bool {
	if aT != bT || aBins.Len() != bBins.Len() {
		return false
	}
	for i := 0; i < aBins.Len(); i++ {
		if aBins.At(i) != bBins.At(i) {
			return false
		}
	}
	return true
}

// insertLocked adds a built queue and evicts the least recently used entry
// past capacity. Caller holds c.mu.
func (c *OPQCache) insertLocked(key queueKey, bins core.BinSet, t float64, q *opq.Queue) {
	if _, ok := c.byKey[key]; ok {
		return // a racing build for the same key already landed
	}
	c.byKey[key] = c.ll.PushFront(&cacheEntry{key: key, bins: bins, threshold: t, queue: q})
	for c.ll.Len() > c.capacity {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		evictedKey := oldest.Value.(*cacheEntry).key
		delete(c.byKey, evictedKey)
		if _, building := c.inflight[evictedKey]; !building {
			c.foldKeyLocked(evictedKey)
		}
		c.stats.Evictions++
	}
}

// Contains reports whether the key for (bins, t) is resident, without
// touching recency or counters. Safe for concurrent use.
func (c *OPQCache) Contains(bins core.BinSet, t float64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.byKey[keyOf(bins, t)]
	return ok
}

// Len returns the number of resident queues. Safe for concurrent use.
func (c *OPQCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats returns a snapshot of the cache counters. Safe for concurrent use.
func (c *OPQCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = c.ll.Len()
	return s
}

// KeyMetrics returns per-key traffic for the topK busiest keys (by hits
// plus misses, ties broken by key for determinism) and one aggregate for
// everything else — the long tail of live keys plus all counters folded
// from evicted and failed keys. The split keeps hot-key skew observable
// without unbounded metric cardinality. Safe for concurrent use.
func (c *OPQCache) KeyMetrics(topK int) (top []KeyCacheStats, rest KeyCacheStats) {
	c.mu.Lock()
	defer c.mu.Unlock()
	all := make([]KeyCacheStats, 0, len(c.keyed))
	for key, kc := range c.keyed {
		ks := KeyCacheStats{Key: fmt.Sprintf("%016x", key.digest), Hits: kc.hits, Misses: kc.misses, Builds: kc.builds}
		if kc.build != nil {
			ks.Build = kc.build.Snapshot()
		}
		all = append(all, ks)
	}
	sort.Slice(all, func(i, j int) bool {
		ti, tj := all[i].Hits+all[i].Misses, all[j].Hits+all[j].Misses
		if ti != tj {
			return ti > tj
		}
		return all[i].Key < all[j].Key
	})
	if topK < 0 {
		topK = 0
	}
	if topK > len(all) {
		topK = len(all)
	}
	top = all[:topK]
	rest = c.folded
	rest.Key = ""
	for _, ks := range all[topK:] {
		rest.Hits += ks.Hits
		rest.Misses += ks.Misses
		rest.Builds += ks.Builds
		rest.Build = rest.Build.Add(ks.Build)
	}
	return top, rest
}
