package service

import (
	"fmt"
	"maps"
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"repro/internal/obs"
)

// modelEntry is a resident of the table TestResidentsMatchModel drives:
// a job before it settles has no clock, and a session's clock moves on
// every touch.
type modelEntry struct {
	at  int64
	has bool
}

// TestResidentsMatchModel is a model test of residents: a seeded random
// script of puts with and without a clock, settles (a clock fixed once,
// as a job's finish time), touches (a clock that moves, as a session's
// idle clock, through a lookup as the stream routes do), removes, lookups
// and sweeps at a virtual now that moves forward. Beside it runs a
// reference that walks its whole map at every step and drops what has
// expired. After every step the entries the table would serve are the
// reference's, with the same clocks; the table's expired count plus the
// expired entries it still holds (a touched entry queued behind later
// ones) is the reference's; every entry that leaves the table other than
// by remove is counted expired, once; and a sweep examines at most the
// entries it pops plus one. A final sweep far past every clock leaves
// the two identical.
func TestResidentsMatchModel(t *testing.T) {
	for _, tc := range []struct {
		ttl   int64
		seeds uint64
	}{{0, 2}, {100, 8}} {
		for seed := range tc.seeds {
			t.Run(fmt.Sprintf("ttl=%d/seed=%d", tc.ttl, seed), func(t *testing.T) {
				residentsScript(t, tc.ttl, seed)
			})
		}
	}
}

func residentsScript(t *testing.T, ttl int64, seed uint64) {
	rng := rand.New(rand.NewPCG(seed, 53))
	r := newResidents("e", time.Duration(ttl), new(obs.Counter), func(e *modelEntry) (int64, bool) { return e.at, e.has })
	ref := map[string]modelEntry{}
	var refExpired uint64
	now := int64(1_000_000)
	// refTick drops every reference entry expired at now.
	refTick := func() {
		for id, e := range ref {
			if ttl > 0 && e.has && now-e.at >= ttl {
				delete(ref, id)
				refExpired++
			}
		}
	}
	var ids []string
	// pick draws an id, mostly one of the last few minted, which are
	// likely resident, so that touches land inside an entry's lifetime.
	pick := func() string {
		switch k := rng.IntN(8); {
		case len(ids) == 0 || k == 0:
			return "e-0" // never minted
		case k == 1:
			return ids[rng.IntN(len(ids))]
		}
		return ids[len(ids)-1-rng.IntN(min(len(ids), 8))]
	}
	reaped := map[string]bool{}
	var requeued, stale int
	for step := range 2000 {
		before := maps.Clone(r.byID)
		expiredBefore, sweptBefore := r.expired.Value(), r.swept
		fifoBefore := slices.Clone(r.fifo)
		refTick()
		var op, removed string
		switch k := rng.IntN(10); {
		case k < 2:
			op = "put"
			id := r.mint()
			e := &modelEntry{at: now, has: rng.IntN(2) == 0}
			r.put(id, e)
			ref[id] = *e
			ids = append(ids, id)
		case k < 3:
			op = "settle"
			id := pick()
			if e, ok := r.byID[id]; ok && !e.has {
				e.at, e.has = now, true
				r.enqueue(id, e)
				ref[id] = *e
			}
		case k < 5:
			op = "touch"
			id := pick()
			e, ok, _ := r.lookup(id, time.Unix(0, now))
			if _, want := ref[id]; ok != want {
				t.Fatalf("step %d: touch's lookup of %s found %v, the reference %v", step, id, ok, want)
			}
			if ok && e.has {
				e.at = now
				ref[id] = *e
			}
		case k < 6:
			op = "remove"
			id := pick()
			if _, ok, _ := r.lookup(id, time.Unix(0, now)); ok {
				delete(r.byID, id)
				delete(ref, id)
				removed = id
			}
		case k < 7:
			op = "lookup"
			id := pick()
			_, ok, _ := r.lookup(id, time.Unix(0, now))
			if _, want := ref[id]; ok != want {
				t.Fatalf("step %d: lookup of %s found %v, the reference %v", step, id, ok, want)
			}
		case k < 9:
			op = "sweep"
			r.sweep(time.Unix(0, now))
			popped := 0
			for len(r.fifo) < len(fifoBefore)-popped || !slices.Equal(r.fifo[:len(fifoBefore)-popped], fifoBefore[popped:]) {
				popped++
			}
			requeued += len(r.fifo) - (len(fifoBefore) - popped)
			if examined := r.swept - sweptBefore; examined < popped || examined > popped+1 {
				t.Fatalf("step %d: a sweep popped %d entries and examined %d", step, popped, examined)
			}
		default:
			op = "advance"
			now += rng.Int64N(ttl + 50)
			refTick()
		}

		left := 0
		for id := range before {
			if _, ok := r.byID[id]; !ok && id != removed {
				if reaped[id] {
					t.Fatalf("step %d (%s): %s expired twice", step, op, id)
				}
				reaped[id] = true
				left++
			}
		}
		if got := r.expired.Value() - expiredBefore; got != uint64(left) {
			t.Fatalf("step %d (%s): %d entries expired out of the table, %d counted", step, op, left, got)
		}
		stale += checkResidents(t, fmt.Sprintf("step %d (%s)", step, op), &r, ref, refExpired, now)
	}
	t.Logf("expired %d entries, requeued %d, held an expired one at %d checks", refExpired, requeued, stale)
	if ttl > 0 && (refExpired == 0 || requeued == 0 || stale == 0) {
		t.Fatalf("the script expired %d entries, requeued %d and held an expired one %d times; want each", refExpired, requeued, stale)
	}

	now += 10 * (ttl + 1)
	refTick()
	r.sweep(time.Unix(0, now))
	if len(r.fifo) != 0 {
		t.Fatalf("a sweep past every clock left %d queued", len(r.fifo))
	}
	checkResidents(t, "drained", &r, ref, refExpired, now)
	if len(r.byID) != len(ref) {
		t.Fatalf("drained: %d resident, the reference holds %d", len(r.byID), len(ref))
	}
}

// checkResidents fails t unless the entries r would serve at now are ref's
// and r's expired count, with the expired entries it still holds, is
// refExpired. It returns how many of those r holds.
func checkResidents(t *testing.T, label string, r *residents[*modelEntry], ref map[string]modelEntry, refExpired uint64, now int64) int {
	t.Helper()
	live, stale := map[string]modelEntry{}, uint64(0)
	for id, e := range r.byID {
		if r.expiredAt(e, now) {
			stale++
		} else {
			live[id] = *e
		}
	}
	if !maps.Equal(live, ref) {
		t.Fatalf("%s: the table serves %v, the reference holds %v", label, live, ref)
	}
	if got := r.expired.Value() + stale; got != refExpired {
		t.Fatalf("%s: %d expired and %d expired but resident; the reference expired %d", label, r.expired.Value(), stale, refExpired)
	}
	return int(stale)
}
