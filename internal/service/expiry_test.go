package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"repro/internal/binset"
	"repro/internal/store"
)

// newExpiryService is a service whose result TTL only a test's own sweep
// reaches: the janitor ticks once a minute, and nothing expires for an
// hour unless the test backdates it.
func newExpiryService(t *testing.T) *Service {
	t.Helper()
	svc := New(Config{CacheSize: 8, Workers: 1, MaxJobs: 1, ResultTTL: time.Hour, Slog: slog.New(slog.DiscardHandler)})
	t.Cleanup(func() { svc.Close() })
	return svc
}

// canceledJobs registers n pending jobs as Submit does, without their
// run goroutines, and settles each canceled as a DELETE of a pending job
// does, so every one holds a result TTL.
func canceledJobs(m *JobManager, n int) []string {
	ids := make([]string, n)
	for i := range ids {
		m.mu.Lock()
		m.jobs.last++
		j := &job{id: fmt.Sprintf("job-%d", m.jobs.last), kind: KindSolve, state: JobPending, submitted: time.Now()}
		j.feed = newJobFeed(j.id, m.sseEvents)
		m.jobs.byID[j.id] = j
		m.counts.pending.Inc()
		m.settleLocked(j, nil, nil, context.Canceled)
		ids[i] = j.id
	}
	return ids
}

// TestSweepExaminesOnlyExpired is the clock-free gate of expiry in
// O(expired): with 10⁵ unexpired jobs and 10⁵ unexpired stream sessions
// resident, one janitor tick examines the head of each expiry queue and
// nothing else. A tick past the TTL then pops every entry once. Under
// -race, whose shadow memory multiplies the ≈ 110 MB the two tables hold
// at 10⁵, the tables hold 10⁴: what a tick examines does not depend on n.
func TestSweepExaminesOnlyExpired(t *testing.T) {
	n := 100_000
	if raceBuild {
		n = 10_000
	}
	svc := newExpiryService(t)
	m, sm := svc.Jobs(), svc.streams
	canceledJobs(m, n)
	for range n {
		if _, err := sm.open(binset.Table1(), 0.9); err != nil {
			t.Fatal(err)
		}
	}

	now := time.Now()
	m.sweep(now)
	sm.sweep(now)
	if m.jobs.swept != 1 || sm.sessions.swept != 1 {
		t.Fatalf("one tick with nothing expired examined %d jobs and %d sessions; want the two queue heads", m.jobs.swept, sm.sessions.swept)
	}
	if len(m.jobs.byID) != n || len(sm.sessions.byID) != n {
		t.Fatalf("a tick with nothing expired reaped: %d jobs and %d sessions left of %d", len(m.jobs.byID), len(sm.sessions.byID), n)
	}

	later := now.Add(2 * time.Hour)
	m.sweep(later)
	sm.sweep(later)
	if js, ss := m.Stats(), sm.stats(); js.Expired != uint64(n) || ss.Expired != uint64(n) || ss.Active != 0 {
		t.Fatalf("a tick past the TTL expired %d jobs and %d sessions (%d resident); want %d each", js.Expired, ss.Expired, ss.Active, n)
	}
	if m.jobs.swept != 1+n || sm.sessions.swept != 1+n {
		t.Fatalf("a tick past the TTL examined %d jobs and %d sessions; want each entry once", m.jobs.swept-1, sm.sessions.swept-1)
	}
}

// TestLazyExpiryCountsOnce: a job a read expires lazily leaves its entry
// on the expiry queue; the sweep that pops it skips it, so
// slade_jobs_expired_total counts the job once.
func TestLazyExpiryCountsOnce(t *testing.T) {
	svc := newExpiryService(t)
	m := svc.Jobs()
	id := canceledJobs(m, 1)[0]
	m.mu.Lock()
	m.jobs.byID[id].finished = m.jobs.byID[id].finished.Add(-2 * time.Hour)
	m.mu.Unlock()

	if _, err := m.Status(id); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("read of an expired job: %v, want ErrUnknownJob", err)
	}
	m.sweep(time.Now().Add(2 * time.Hour))
	if got := m.Stats().Expired; got != 1 {
		t.Fatalf("expired %d after a lazy expiry and a sweep; want 1", got)
	}
	if len(m.jobs.fifo) != 0 || m.jobs.swept != 1 {
		t.Fatalf("the sweep left %d queued and examined %d; want the one entry popped", len(m.jobs.fifo), m.jobs.swept)
	}
	if got := parseSamples(t, string(svc.Metrics()))["slade_jobs_expired_total"]; got != 1 {
		t.Fatalf("slade_jobs_expired_total reads %v; want 1", got)
	}
}

// TestSweepRequeuesTouchedSession: a session touched after it was queued
// is queued again at its new idle clock, not reaped, and reaped once that
// clock expires; a deleted session's entry is skipped.
func TestSweepRequeuesTouchedSession(t *testing.T) {
	svc := newExpiryService(t)
	sm := svc.streams
	touched, err := sm.open(binset.Table1(), 0.9)
	if err != nil {
		t.Fatal(err)
	}
	deleted, err := sm.open(binset.Table1(), 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if err := sm.remove(deleted.ID); err != nil {
		t.Fatal(err)
	}
	ss := sm.sessions.byID[touched.ID]
	queued := ss.lastNS.Load()
	ss.lastNS.Store(queued + int64(30*time.Minute))

	sm.sweep(time.Unix(0, queued).Add(time.Hour + time.Minute))
	if st := sm.stats(); st.Active != 1 || st.Expired != 0 {
		t.Fatalf("after the queued clock expired: %+v; want the touched session resident", st)
	}
	if want := []expiryEntry{{touched.ID, ss.lastNS.Load()}}; !slices.Equal(sm.sessions.fifo, want) {
		t.Fatalf("expiry queue %v; want %v, the touched session at its new clock", sm.sessions.fifo, want)
	}
	sm.sweep(time.Unix(0, ss.lastNS.Load()).Add(time.Hour))
	if st := sm.stats(); st.Active != 0 || st.Expired != 1 {
		t.Fatalf("after the new clock expired: %+v; want the touched session reaped, the deleted one not counted", st)
	}
}

// TestDeleteExpiredSession: a DELETE of a session that has idled past the
// TTL but that no sweep has reaped yet answers 404, as a read of it does,
// and counts the session expired once, the sweep that pops its entry
// after included.
func TestDeleteExpiredSession(t *testing.T) {
	svc := newExpiryService(t)
	sm := svc.streams
	st, err := sm.open(binset.Table1(), 0.9)
	if err != nil {
		t.Fatal(err)
	}
	sm.sessions.byID[st.ID].lastNS.Add(-int64(2 * time.Hour))

	rec := httptest.NewRecorder()
	NewHandler(svc).ServeHTTP(rec, httptest.NewRequest("DELETE", "/v1/streams/"+st.ID, nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("DELETE of an expired session: %d %s; want 404", rec.Code, rec.Body)
	}
	sm.sweep(time.Now())
	if got := sm.stats(); got.Active != 0 || got.Expired != 1 {
		t.Fatalf("after the DELETE and a sweep: %+v; want no session resident and one expired", got)
	}
	if got := parseSamples(t, string(svc.Metrics()))["slade_stream_sessions_expired_total"]; got != 1 {
		t.Fatalf("slade_stream_sessions_expired_total reads %v; want 1", got)
	}
}

// TestCancelExpiredJob: a DELETE of a job past its result TTL that no
// sweep has reaped yet answers 404, as a read of it does, counts the job
// expired once and deletes its stored record.
func TestCancelExpiredJob(t *testing.T) {
	mem := store.NewMem()
	svc := New(Config{CacheSize: 8, Workers: 1, MaxJobs: 1, ResultTTL: time.Hour, Store: mem, Slog: slog.New(slog.DiscardHandler)})
	t.Cleanup(func() { svc.Close() })
	m := svc.Jobs()
	id := canceledJobs(m, 1)[0]
	if _, err := mem.GetJob(id); err != nil {
		t.Fatalf("the canceled job was not stored: %v", err)
	}
	m.mu.Lock()
	m.jobs.byID[id].finished = m.jobs.byID[id].finished.Add(-2 * time.Hour)
	m.mu.Unlock()

	rec := httptest.NewRecorder()
	NewHandler(svc).ServeHTTP(rec, httptest.NewRequest("DELETE", "/v1/jobs/"+id, nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("DELETE of an expired job: %d %s; want 404", rec.Code, rec.Body)
	}
	if _, err := mem.GetJob(id); err == nil {
		t.Fatal("the expired job's record is still stored")
	}
	m.sweep(time.Now().Add(2 * time.Hour))
	if got := m.Stats().Expired; got != 1 {
		t.Fatalf("expired %d after the DELETE and a sweep; want 1", got)
	}
	if got := parseSamples(t, string(svc.Metrics()))["slade_jobs_expired_total"]; got != 1 {
		t.Fatalf("slade_jobs_expired_total reads %v; want 1", got)
	}
}
