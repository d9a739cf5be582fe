package store

import (
	"errors"
	"log"
	"os"
	"testing"
	"time"
)

// obsCall is one observation delivered to the test Observer.
type obsCall struct {
	op  string
	d   time.Duration
	err error
}

// TestObservedForwardsAndObserves: every Store op passes through the
// wrapper unchanged and lands exactly one observation with the right op
// label, a non-negative duration, and the op's error (ErrNotFound
// included — filtering it is the observer's business, not the wrapper's).
func TestObservedForwardsAndObserves(t *testing.T) {
	var calls []obsCall
	s := Observed(NewMem(), func(op string, d time.Duration, err error) {
		calls = append(calls, obsCall{op, d, err})
	})

	if err := s.PutJob(testRecord("job-1")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GetJob("job-1"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ListJobs(); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteJob("job-1"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GetJob("gone"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("get missing through wrapper: %v", err)
	}

	wantOps := []string{"put_job", "get_job", "list_jobs", "delete_job", "get_job"}
	if len(calls) != len(wantOps) {
		t.Fatalf("got %d observations, want %d: %+v", len(calls), len(wantOps), calls)
	}
	for i, want := range wantOps {
		if calls[i].op != want {
			t.Errorf("observation %d: op %q, want %q", i, calls[i].op, want)
		}
		if calls[i].d < 0 {
			t.Errorf("observation %d: negative duration %v", i, calls[i].d)
		}
	}
	if !errors.Is(calls[len(calls)-1].err, ErrNotFound) {
		t.Errorf("missing-get observation should carry ErrNotFound, got %v", calls[len(calls)-1].err)
	}
	if err := s.Close(); err != nil { // Close is deliberately unobserved
		t.Fatal(err)
	}
	if len(calls) != len(wantOps) {
		t.Errorf("Close was observed: %+v", calls[len(wantOps):])
	}
}

// TestObservedNilPassthrough: a nil store or nil observer means nothing
// to wrap — the input comes back identical, not proxied.
func TestObservedNilPassthrough(t *testing.T) {
	m := NewMem()
	if got := Observed(m, nil); got != Store(m) {
		t.Errorf("nil observer: want the store back unchanged, got %T", got)
	}
	if got := Observed(nil, func(string, time.Duration, error) {}); got != nil {
		t.Errorf("nil store: want nil back, got %T", got)
	}
}

// TestObservedForwardsChecker: wrapping must not hide a store's
// CheckWritable — the health endpoint type-asserts the Checker facet
// through whatever Store it was configured with.
func TestObservedForwardsChecker(t *testing.T) {
	dir := t.TempDir()
	fs, err := OpenFS(dir, log.New(os.Stderr, "", 0))
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()

	wrapped := Observed(fs, func(string, time.Duration, error) {})
	c, ok := wrapped.(Checker)
	if !ok {
		t.Fatal("Observed(FS) lost the Checker facet")
	}
	if err := c.CheckWritable(); err != nil {
		t.Fatalf("writable dir reported unwritable: %v", err)
	}

	// Mem has no Checker; the wrapper must not invent one.
	if _, ok := Observed(NewMem(), func(string, time.Duration, error) {}).(Checker); ok {
		t.Error("Observed(Mem) grew a Checker facet out of nothing")
	}
}

// TestFSCheckWritable: the probe actually writes — a data dir that
// vanishes (or stops accepting writes) turns into an error, and the
// probe's temp file never survives a successful check.
func TestFSCheckWritable(t *testing.T) {
	dir := t.TempDir()
	fs, err := OpenFS(dir, log.New(os.Stderr, "", 0))
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	if err := fs.CheckWritable(); err != nil {
		t.Fatalf("fresh dir: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			t.Errorf("probe left %s behind", e.Name())
		}
	}

	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	expireProbeCache(fs)
	if err := fs.CheckWritable(); err == nil {
		t.Fatal("vanished dir reported writable")
	}
}

// TestFSCheckWritableCached: within writableProbeInterval the verdict is
// served from cache — no disk probe — so readiness probes hammering
// /v1/healthz do not translate into a constant write load on the data
// dir. The cache expiring brings back the real probe.
func TestFSCheckWritableCached(t *testing.T) {
	dir := t.TempDir()
	fs, err := OpenFS(dir, log.New(os.Stderr, "", 0))
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()

	if err := fs.CheckWritable(); err != nil {
		t.Fatalf("fresh dir: %v", err)
	}
	// Break the dir; the cached verdict keeps reporting writable...
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := fs.CheckWritable(); err != nil {
		t.Fatalf("verdict within the probe interval not cached: %v", err)
	}
	// ...until the interval passes and the probe runs for real.
	expireProbeCache(fs)
	if err := fs.CheckWritable(); err == nil {
		t.Fatal("expired cache did not re-probe the vanished dir")
	}
	// Failure verdicts cache too.
	if err := fs.CheckWritable(); err == nil {
		t.Fatal("cached failure verdict lost")
	}
}

// expireProbeCache ages the CheckWritable cache so the next call probes
// the disk for real.
func expireProbeCache(fs *FS) {
	fs.probeMu.Lock()
	fs.probeAt = fs.probeAt.Add(-2 * writableProbeInterval)
	fs.probeMu.Unlock()
}
