package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// impls returns a fresh instance of every Store implementation.
func impls(t *testing.T) map[string]Store {
	t.Helper()
	fsStore, err := OpenFS(t.TempDir(), log.New(os.Stderr, "", 0))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Store{
		"mem": NewMem(),
		"fs":  fsStore,
	}
}

func testRecord(id string) JobRecord {
	return JobRecord{
		ID:        id,
		State:     "done",
		Solver:    "sharded",
		Submitted: time.Date(2026, 7, 1, 12, 0, 0, 0, time.UTC),
		Finished:  time.Date(2026, 7, 1, 12, 0, 1, 0, time.UTC),
		Summary:   json.RawMessage(`{"cost":1.5}`),
		Plan:      json.RawMessage(`{"uses":[{"cardinality":1,"tasks":[0]}]}`),
	}
}

// TestStoreRoundTrip exercises the full CRUD surface on every
// implementation.
func TestStoreRoundTrip(t *testing.T) {
	for name, s := range impls(t) {
		t.Run(name, func(t *testing.T) {
			if _, err := s.GetJob("job-1"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("get missing: want ErrNotFound, got %v", err)
			}
			if err := s.DeleteJob("job-1"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("delete missing: want ErrNotFound, got %v", err)
			}

			rec := testRecord("job-1")
			if err := s.PutJob(rec); err != nil {
				t.Fatal(err)
			}
			got, err := s.GetJob("job-1")
			if err != nil {
				t.Fatal(err)
			}
			if got.Version != RecordVersion {
				t.Fatalf("version not stamped: %d", got.Version)
			}
			if got.State != "done" || got.Solver != "sharded" || !got.Submitted.Equal(rec.Submitted) {
				t.Fatalf("round trip mismatch: %+v", got)
			}
			if !bytes.Equal(got.Plan, rec.Plan) || !bytes.Equal(got.Summary, rec.Summary) {
				t.Fatalf("payload mismatch: %s / %s", got.Plan, got.Summary)
			}

			// Overwrite replaces.
			rec2 := rec
			rec2.State = "failed"
			rec2.Error = "boom"
			if err := s.PutJob(rec2); err != nil {
				t.Fatal(err)
			}
			got, err = s.GetJob("job-1")
			if err != nil {
				t.Fatal(err)
			}
			if got.State != "failed" || got.Error != "boom" {
				t.Fatalf("overwrite lost: %+v", got)
			}

			if err := s.PutJob(testRecord("job-2")); err != nil {
				t.Fatal(err)
			}
			recs, err := s.ListJobs()
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != 2 {
				t.Fatalf("list: want 2, got %d", len(recs))
			}

			if err := s.DeleteJob("job-1"); err != nil {
				t.Fatal(err)
			}
			if _, err := s.GetJob("job-1"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("get after delete: want ErrNotFound, got %v", err)
			}

			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestStoreRejectsInvalidRecords checks validation on the way in.
func TestStoreRejectsInvalidRecords(t *testing.T) {
	for name, s := range impls(t) {
		t.Run(name, func(t *testing.T) {
			if err := s.PutJob(JobRecord{State: "done"}); err == nil {
				t.Fatal("want error for missing id")
			}
			if err := s.PutJob(JobRecord{ID: "job-1"}); err == nil {
				t.Fatal("want error for missing state")
			}
			rec := testRecord("job-1")
			rec.Version = RecordVersion + 1
			if err := s.PutJob(rec); err == nil {
				t.Fatal("want error for future version")
			}
		})
	}
}

// TestStoreConcurrentAccess hammers one store from many goroutines; run
// with -race this is the concurrency contract check.
func TestStoreConcurrentAccess(t *testing.T) {
	for name, s := range impls(t) {
		t.Run(name, func(t *testing.T) {
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 20; i++ {
						id := fmt.Sprintf("job-%d-%d", g, i)
						if err := s.PutJob(testRecord(id)); err != nil {
							t.Error(err)
							return
						}
						if _, err := s.GetJob(id); err != nil {
							t.Error(err)
							return
						}
						if _, err := s.ListJobs(); err != nil {
							t.Error(err)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			recs, err := s.ListJobs()
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != 8*20 {
				t.Fatalf("want %d records, got %d", 8*20, len(recs))
			}
		})
	}
}

// TestFSSurvivesReopen is the core durability property: everything put
// before a crash (simulated by dropping the handle and reopening the
// directory) is served after.
func TestFSSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFS(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		if err := s.PutJob(testRecord(fmt.Sprintf("job-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// No Close: each Put is already durable.

	re, err := OpenFS(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := re.ListJobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Fatalf("want 5 records after reopen, got %d", len(recs))
	}
	if _, err := re.GetJob("job-3"); err != nil {
		t.Fatal(err)
	}
}

// TestFSSkipsCorruptRecords plants torn, hand-edited, future-versioned and
// mid-write files next to good records and checks that List recovers the
// good ones, warns about the bad ones, and never crashes.
func TestFSSkipsCorruptRecords(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	s, err := OpenFS(dir, log.New(&buf, "", 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutJob(testRecord("job-1")); err != nil {
		t.Fatal(err)
	}
	if err := s.PutJob(testRecord("job-2")); err != nil {
		t.Fatal(err)
	}

	jobs := filepath.Join(dir, "jobs")
	// Torn write: truncated JSON.
	if err := os.WriteFile(filepath.Join(jobs, "job-3.json"), []byte(`{"version":1,"id":"job-3","sta`), 0o644); err != nil {
		t.Fatal(err)
	}
	// Future format version.
	if err := os.WriteFile(filepath.Join(jobs, "job-4.json"), []byte(`{"version":99,"id":"job-4","state":"done"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	// Filename / id mismatch (renamed by hand).
	if err := os.WriteFile(filepath.Join(jobs, "job-5.json"), []byte(`{"version":1,"id":"job-6","state":"done"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	// Interrupted write: temp file must be invisible.
	if err := os.WriteFile(filepath.Join(jobs, "job-7.json.tmp123"), []byte(`{}`), 0o644); err != nil {
		t.Fatal(err)
	}

	recs, err := s.ListJobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("want the 2 good records, got %d: %+v", len(recs), recs)
	}
	warnings := buf.String()
	for _, frag := range []string{"job-3.json", "job-4.json", "job-5.json"} {
		if !strings.Contains(warnings, frag) {
			t.Errorf("no warning logged for %s; log was:\n%s", frag, warnings)
		}
	}
	if _, err := s.GetJob("job-3"); err == nil || errors.Is(err, ErrNotFound) {
		t.Fatalf("Get on corrupt record: want a decode error, got %v", err)
	}

	// Reopen cleans abandoned temp files.
	if _, err := OpenFS(dir, log.New(&buf, "", 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(jobs, "job-7.json.tmp123")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("leftover temp not cleaned: %v", err)
	}
}

// TestFSRejectsTraversalNames keeps ids inside the store directory.
func TestFSRejectsTraversalNames(t *testing.T) {
	s, err := OpenFS(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"", "../escape", "a/b", `a\b`, ".hidden", "x.tmp"} {
		rec := testRecord("job-1")
		rec.ID = bad
		if err := s.PutJob(rec); err == nil {
			t.Errorf("PutJob accepted id %q", bad)
		}
		if _, err := s.GetJob(bad); err == nil || errors.Is(err, ErrNotFound) {
			t.Errorf("GetJob(%q): want name error, got %v", bad, err)
		}
	}
}

// TestOpenFSErrors covers the constructor's failure paths.
func TestOpenFSErrors(t *testing.T) {
	if _, err := OpenFS("", nil); err == nil {
		t.Fatal("want error for empty dir")
	}
	// A file where the directory should be.
	f := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(f, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFS(f, nil); err == nil {
		t.Fatal("want error when root is a file")
	}
}
