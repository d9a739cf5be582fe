package service

import (
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// residents is a manager's table of resident entries, terminal jobs or
// stream sessions, under the result TTL that reaps them. It mints their
// ids, expires an entry lazily when a lookup finds it past the TTL, and
// queues every entry with the clock it had when queued, so that sweep
// pops only the expired head of one FIFO: a tick costs O(expired), not
// O(resident). The owner supplies only each entry's clock. Guarded by
// the owning manager's lock.
type residents[V any] struct {
	prefix string
	// ttl reaps an entry this long after its clock; zero keeps every
	// entry until its owner deletes it.
	ttl time.Duration
	// clock reads an entry's expiry clock in Unix nanoseconds; false for
	// an entry that does not expire yet (a job not yet terminal).
	clock func(V) (int64, bool)
	// expired counts the entries reaped, by a lookup or by sweep.
	expired *obs.Counter

	byID map[string]V
	// last is the highest id number minted or seen.
	last int
	// fifo queues entries by the clock they had when queued; empty
	// without a TTL. swept counts the entries sweep has examined.
	fifo  []expiryEntry
	swept int
}

// expiryEntry is one expiry-queue entry. It names the entry by id, so an
// entry deleted from the table is freed at once, not when this is popped.
type expiryEntry struct {
	id string
	at int64
}

func newResidents[V any](prefix string, ttl time.Duration, expired *obs.Counter, clock func(V) (int64, bool)) residents[V] {
	return residents[V]{prefix: prefix, ttl: ttl, clock: clock, expired: expired, byID: make(map[string]V)}
}

// mint returns a fresh id, "<prefix>-N".
func (r *residents[V]) mint() string {
	r.last++
	return r.prefix + "-" + strconv.Itoa(r.last)
}

// seen keeps later mints after id, one replayed from an earlier process.
func (r *residents[V]) seen(id string) {
	num, ok := strings.CutPrefix(id, r.prefix+"-")
	if n, err := strconv.Atoi(num); ok && err == nil && n > r.last {
		r.last = n
	}
}

// put makes v resident under id and queues it if it has a clock.
func (r *residents[V]) put(id string, v V) {
	r.byID[id] = v
	r.enqueue(id, v)
}

// enqueue queues id at v's clock, if v has one and the table a TTL.
func (r *residents[V]) enqueue(id string, v V) {
	if at, ok := r.clock(v); ok && r.ttl > 0 {
		r.fifo = append(r.fifo, expiryEntry{id, at})
	}
}

// expiredAt reports whether v's clock is a TTL or more before now.
func (r *residents[V]) expiredAt(v V, now int64) bool {
	at, ok := r.clock(v)
	return ok && r.ttl > 0 && now-at >= int64(r.ttl)
}

// lookup returns the entry id names, unless it is gone or expired at now.
// An expired entry is deleted and counted here; reaped reports that, so
// the owner can release what it kept outside the table.
func (r *residents[V]) lookup(id string, now time.Time) (v V, ok, reaped bool) {
	v, ok = r.byID[id]
	if ok && r.expiredAt(v, now.UnixNano()) {
		delete(r.byID, id)
		r.expired.Inc()
		var zero V
		return zero, false, true
	}
	return v, ok, false
}

// sweep reaps the entries expired at now and returns their ids. It pops
// the queue while its head's queued clock has expired. A popped entry
// that is gone (deleted, or reaped by a lookup) is skipped, so none
// counts twice; one whose clock moved since it was queued, and has not
// expired at its new clock, is queued again at that clock. Such an entry
// can sit behind later ones, so it may stay resident up to about one
// more TTL past its expiry; lookup still makes every read exact.
func (r *residents[V]) sweep(now time.Time) (reaped []string) {
	t := now.UnixNano()
	for len(r.fifo) > 0 {
		e := r.fifo[0]
		r.swept++
		if t-e.at < int64(r.ttl) {
			break
		}
		r.fifo = r.fifo[1:]
		v, ok := r.byID[e.id]
		switch {
		case !ok:
		case r.expiredAt(v, t):
			delete(r.byID, e.id)
			r.expired.Inc()
			reaped = append(reaped, e.id)
		default:
			r.enqueue(e.id, v)
		}
	}
	return reaped
}
