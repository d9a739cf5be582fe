// Package service is the serving layer of the SLADE reproduction: a
// long-running decomposition service that amortizes Optimal Priority Queue
// construction across requests (OPQCache), solves each request once over
// a cached queue behind a service-wide bound on concurrent solves
// (ShardedSolver), and runs asynchronous decomposition jobs
// (JobManager) — the seam the cmd/sladed HTTP daemon exposes.
package service

import (
	"container/list"
	"math"
	"slices"
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
	// Hits counts Get calls answered from the cache, including those a
	// piece built for another threshold answered.
	Hits uint64 `json:"hits"`
	// Misses counts Get calls that had to build (or wait for) a queue.
	Misses uint64 `json:"misses"`
	// Builds counts actual opq.BuildPiece invocations — with coalescing at
	// most one per miss, and once pieces cover a menu's working set, none.
	// A build whose queue a resident piece already holds widens that
	// piece instead of adding an entry.
	Builds uint64 `json:"builds"`
	// Coalesced counts Get calls that piggybacked on an in-flight build
	// instead of starting their own.
	Coalesced uint64 `json:"coalesced"`
	// Evictions counts entries dropped by the LRU policy.
	Evictions uint64 `json:"evictions"`
	// Entries is the current number of resident queues (pieces).
	Entries int `json:"entries"`
}

// BuildFunc constructs a queue for a menu and threshold together with the
// piece of needs it is valid on; opq.BuildPiece is the production
// implementation. Tests inject counting or failing variants.
type BuildFunc func(bins core.BinSet, t float64) (*opq.Queue, opq.Piece, error)

// OPQCache is a concurrency-safe LRU cache of Optimal Priority Queues. A
// queue is piecewise constant in the threshold, so each entry is a piece:
// one queue and the interval of needs opq.Need(t) on which Algorithm 2
// returns exactly it (opq.BuildPiece). A Get hits on any resident piece of
// its menu that holds its need, whichever threshold built it; entries of
// one menu never overlap. Concurrent Gets for the same missing threshold
// coalesce into a single build: the first caller runs Algorithm 2, the
// rest block until it finishes and share the result. Queues are read-only
// after construction, so sharing is safe.
type OPQCache struct {
	mu       sync.Mutex
	capacity int
	build    BuildFunc
	ll       *list.List // of *cacheEntry; front = most recently used
	// menus holds each menu's pieces under its core.BinSet.Key.
	menus    map[string]*menuPieces
	inflight map[menuThreshold]*inflightBuild
	stats    CacheStats
	// buildDuration, when set, observes every build's latency (see
	// register).
	buildDuration *obs.Histogram
}

// menuPieces is one menu's resident entries.
type menuPieces struct {
	// pieces are the shareable entries, sorted by ascending Hi. Two
	// correct pieces that share a need share a queue and so its least
	// mass, Hi; pieces of different Hi therefore never overlap.
	pieces []*cacheEntry
	// exact are entries whose piece does not hold their own threshold's
	// need: a θ = 0 build (the zero Piece) or one whose need rounds to
	// −RelTol. Each serves its own threshold's bits only.
	exact []*cacheEntry
}

// find returns the entry that serves need (or, failing a piece, exactly t),
// or nil. m may be nil.
func (m *menuPieces) find(need, t float64) *cacheEntry {
	if m == nil {
		return nil
	}
	if i := m.search(need); i < len(m.pieces) && m.pieces[i].piece.Lo < need {
		return m.pieces[i]
	}
	return m.exactFor(t)
}

// exactFor returns the exact entry built for t's bits, or nil.
func (m *menuPieces) exactFor(t float64) *cacheEntry {
	for _, e := range m.exact {
		if e.tbits == math.Float64bits(t) {
			return e
		}
	}
	return nil
}

// search returns the index of the first piece with Hi ≥ hi.
func (m *menuPieces) search(hi float64) int {
	return sort.Search(len(m.pieces), func(i int) bool { return m.pieces[i].piece.Hi >= hi })
}

// menuThreshold identifies the queue opq.Build(bins, t) would construct,
// for in-flight builds and the batcher alike: the menu's key
// (core.BinSet.Key, built once with the menu) and the threshold's bit
// pattern (bits, not the float, so a NaN key still finds itself in a
// map). Equal keys are equal menus, so a match needs no confirming.
type menuThreshold struct {
	menu  string
	tbits uint64
}

// cacheEntry is one resident piece of a menu.
type cacheEntry struct {
	tbits uint64 // of the threshold that first built the piece
	menu  string // its menu's key
	piece opq.Piece
	queue *opq.Queue
	el    *list.Element
}

// inflightBuild tracks a build in progress; waiters block on done.
type inflightBuild struct {
	done  chan struct{}
	queue *opq.Queue
	err   error
}

// NewOPQCache returns a cache holding at most capacity queues
// (DefaultCacheSize when capacity <= 0), building misses with
// opq.BuildPiece.
func NewOPQCache(capacity int) *OPQCache {
	return NewOPQCacheWithBuilder(capacity, opq.BuildPiece)
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
		menus:    make(map[string]*menuPieces),
		inflight: make(map[menuThreshold]*inflightBuild),
	}
}

// Get returns the queue for (bins, t): the resident piece of the menu that
// holds t's need, or else a new build. Errors are not cached: every Get for
// a failing threshold re-attempts the build (concurrent callers still share
// one attempt). Safe for concurrent use; builds run outside the cache
// lock, so Gets for other keys never block behind Algorithm 2. The
// returned queue is shared and must be treated as read-only; its Threshold
// is the one that first built it, which plans exactly as t does.
func (c *OPQCache) Get(bins core.BinSet, t float64) (*opq.Queue, error) {
	key := menuThreshold{menu: bins.Key(), tbits: math.Float64bits(t)}
	need := opq.Need(t)

	c.mu.Lock()
	if e := c.menus[key.menu].find(need, t); e != nil {
		c.stats.Hits++
		c.ll.MoveToFront(e.el)
		q := e.queue
		c.mu.Unlock()
		return q, nil
	}
	if fl, ok := c.inflight[key]; ok {
		c.stats.Coalesced++
		c.mu.Unlock()
		<-fl.done
		return fl.queue, fl.err
	}
	c.stats.Misses++
	fl := &inflightBuild{done: make(chan struct{})}
	c.inflight[key] = fl
	c.mu.Unlock()

	// Algorithm 2 runs outside the lock: other keys stay servable and
	// same-key callers coalesce onto fl.
	buildStart := time.Now()
	q, piece, err := c.build(bins, t)
	buildDur := time.Since(buildStart)

	c.mu.Lock()
	c.stats.Builds++
	if c.buildDuration != nil {
		c.buildDuration.ObserveDuration(buildDur)
	}
	delete(c.inflight, key)
	if err == nil {
		c.insertLocked(key.menu, t, q, piece)
	}
	c.mu.Unlock()

	fl.queue, fl.err = q, err
	close(fl.done)
	return q, err
}

// insertLocked makes a built queue resident and evicts the least recently
// used entries past capacity. A piece whose Hi a resident piece of the
// menu shares holds the same queue, so it only lowers that piece's Lo.
// Caller holds c.mu.
func (c *OPQCache) insertLocked(menu string, t float64, q *opq.Queue, piece opq.Piece) {
	m := c.menus[menu]
	if m == nil {
		m = &menuPieces{}
		c.menus[menu] = m
	}
	shared, i := piece.Contains(opq.Need(t)), m.search(piece.Hi)
	var old *cacheEntry
	if !shared {
		old = m.exactFor(t) // a racing build landed first
	} else if i < len(m.pieces) && m.pieces[i].piece.Hi == piece.Hi {
		old = m.pieces[i]
		old.piece.Lo = min(old.piece.Lo, piece.Lo)
	}
	if old != nil {
		c.ll.MoveToFront(old.el)
		return
	}
	e := &cacheEntry{tbits: math.Float64bits(t), menu: menu, piece: piece, queue: q}
	if shared {
		m.pieces = slices.Insert(m.pieces, i, e)
	} else {
		m.exact = append(m.exact, e)
	}
	e.el = c.ll.PushFront(e)
	for c.ll.Len() > c.capacity {
		c.evictLocked(c.ll.Back().Value.(*cacheEntry))
	}
}

// evictLocked drops e. Caller holds c.mu.
func (c *OPQCache) evictLocked(e *cacheEntry) {
	c.ll.Remove(e.el)
	m := c.menus[e.menu]
	m.pieces = slices.DeleteFunc(m.pieces, func(x *cacheEntry) bool { return x == e })
	m.exact = slices.DeleteFunc(m.exact, func(x *cacheEntry) bool { return x == e })
	if len(m.pieces) == 0 && len(m.exact) == 0 {
		delete(c.menus, e.menu)
	}
	c.stats.Evictions++
}

// register exports the cache on reg: the build-latency histogram Get
// writes, and its counters as series read at scrape time, so /metrics
// keeps no second copy of them. Call it before the first Get.
func (c *OPQCache) register(reg *obs.Registry) {
	c.buildDuration = reg.Histogram("slade_cache_build_duration_seconds", "Queue build latency.", obs.HistogramOpts{})
	reg.Func("slade_cache_entries", "Resident queues.", obs.TypeGauge, func() float64 { return float64(c.Stats().Entries) })
	reg.Func("slade_cache_hits_total", "Gets a resident queue answered.", obs.TypeCounter, func() float64 { return float64(c.Stats().Hits) })
	reg.Func("slade_cache_misses_total", "Gets that built a queue or waited on another Get's build.", obs.TypeCounter,
		func() float64 { s := c.Stats(); return float64(s.Misses + s.Coalesced) })
	reg.Func("slade_cache_builds_total", "Queue builds.", obs.TypeCounter, func() float64 { return float64(c.Stats().Builds) })
	reg.Func("slade_cache_evictions_total", "Queues dropped by the LRU policy.", obs.TypeCounter, func() float64 { return float64(c.Stats().Evictions) })
	reg.Func("slade_cache_coalesced_total", "Gets that piggybacked on an in-flight build.", obs.TypeCounter, func() float64 { return float64(c.Stats().Coalesced) })
}

// Stats returns a snapshot of the cache counters. Safe for concurrent use.
func (c *OPQCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = c.ll.Len()
	return s
}
