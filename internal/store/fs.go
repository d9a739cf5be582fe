package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"log"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// FS is the crash-safe filesystem Store. Layout under the root directory:
//
//	<dir>/jobs/<id>.json  one versioned JSON record per terminal job
//
// Nothing else under the root is ever opened, so the snapshots/ directory
// an older release left there is harmless.
//
// Every write lands via write-to-temp + fsync + rename + directory fsync,
// so a crash at any point leaves either the old or the new content, never
// a torn file; leftover *.tmp files from interrupted writes are ignored by
// readers and cleaned opportunistically. All methods are safe for
// concurrent use — a mutex serializes writes, reads go straight to the
// filesystem and rely on rename atomicity.
type FS struct {
	dir    string
	logger *log.Logger

	mu sync.Mutex // serializes writers (temp-file naming, delete races)

	// CheckWritable probe cache: the verdict of the last real disk probe,
	// reused within writableProbeInterval so frequent readiness probes do
	// not turn into a constant stream of data-dir writes.
	probeMu  sync.Mutex
	probeAt  time.Time
	probeErr error
}

// writableProbeInterval caps how often CheckWritable touches the disk;
// within the interval the cached verdict is returned. A var so tests can
// force fresh probes.
var writableProbeInterval = time.Second

// tmpSuffix marks in-flight writes; readers skip these files.
const tmpSuffix = ".tmp"

// OpenFS opens (creating if needed) a filesystem store rooted at dir.
// A nil logger falls back to log.Default(); the logger only receives
// warnings about skipped corrupt records and cleanup failures.
func OpenFS(dir string, logger *log.Logger) (*FS, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if logger == nil {
		logger = log.Default()
	}
	if err := os.MkdirAll(filepath.Join(dir, jobsDir), 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", jobsDir, err)
	}
	s := &FS{dir: dir, logger: logger}
	s.removeLeftoverTemps()
	return s, nil
}

const jobsDir = "jobs"

// removeLeftoverTemps deletes *.tmp files abandoned by a crash mid-write.
func (s *FS) removeLeftoverTemps() {
	dir := filepath.Join(s.dir, jobsDir)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if !e.IsDir() && strings.Contains(e.Name(), tmpSuffix) {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				s.logger.Printf("store: warning: removing leftover temp %s: %v", e.Name(), err)
			}
		}
	}
}

// checkName rejects keys that would escape the store directory or collide
// with the temp-file convention.
func checkName(name string) error {
	if name == "" {
		return fmt.Errorf("store: empty name")
	}
	if strings.ContainsAny(name, "/\\") || name != filepath.Base(name) ||
		strings.HasPrefix(name, ".") || strings.Contains(name, tmpSuffix) {
		return fmt.Errorf("store: invalid name %q", name)
	}
	return nil
}

// writeAtomic durably replaces path with data: temp file in the same
// directory, fsync, rename over the target, fsync the directory so the
// rename itself survives a crash.
func (s *FS) writeAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+tmpSuffix+"*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a just-renamed entry is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	// Some filesystems (and platforms) reject fsync on directories; the
	// rename is still atomic there, so degrade silently rather than fail
	// the write.
	if err := d.Sync(); err != nil && !errors.Is(err, fs.ErrInvalid) {
		return err
	}
	return nil
}

// jobPath maps a job id to its record file.
func (s *FS) jobPath(id string) string {
	return filepath.Join(s.dir, jobsDir, id+".json")
}

// PutJob implements Store.
func (s *FS) PutJob(rec JobRecord) error {
	if rec.Version == 0 {
		rec.Version = RecordVersion
	}
	if err := rec.Validate(); err != nil {
		return err
	}
	if err := checkName(rec.ID); err != nil {
		return err
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.writeAtomic(s.jobPath(rec.ID), data)
}

// GetJob implements Store.
func (s *FS) GetJob(id string) (JobRecord, error) {
	if err := checkName(id); err != nil {
		return JobRecord{}, err
	}
	data, err := os.ReadFile(s.jobPath(id))
	if errors.Is(err, fs.ErrNotExist) {
		return JobRecord{}, fmt.Errorf("%w: job %q", ErrNotFound, id)
	}
	if err != nil {
		return JobRecord{}, err
	}
	return decodeRecord(data)
}

// decodeRecord unmarshals and validates one record file.
func decodeRecord(data []byte) (JobRecord, error) {
	var rec JobRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return JobRecord{}, fmt.Errorf("store: corrupt job record: %w", err)
	}
	if err := rec.Validate(); err != nil {
		return JobRecord{}, err
	}
	return rec, nil
}

// ListJobs implements Store. A record file that fails to decode or
// validate (torn by an unclean shutdown, hand-edited, or written by a
// newer version) is skipped with a logged warning — one bad file must
// never take down recovery of the rest.
func (s *FS) ListJobs() ([]JobRecord, error) {
	dir := filepath.Join(s.dir, jobsDir)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	recs := make([]JobRecord, 0, len(entries))
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".json") || strings.Contains(name, tmpSuffix) {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			s.logger.Printf("store: warning: skipping unreadable job record %s: %v", name, err)
			continue
		}
		rec, err := decodeRecord(data)
		if err != nil {
			s.logger.Printf("store: warning: skipping corrupt job record %s: %v", name, err)
			continue
		}
		if rec.ID != strings.TrimSuffix(name, ".json") {
			s.logger.Printf("store: warning: skipping job record %s: id %q does not match filename", name, rec.ID)
			continue
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

// DeleteJob implements Store.
func (s *FS) DeleteJob(id string) error {
	if err := checkName(id); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	err := os.Remove(s.jobPath(id))
	if errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("%w: job %q", ErrNotFound, id)
	}
	if err != nil {
		return err
	}
	return syncDir(filepath.Join(s.dir, jobsDir))
}

// CheckWritable implements Checker: it probes the data directory with a
// real temp-file write so permission loss, a full disk, or a read-only
// remount show up in health checks before a job write fails. The probe
// result is cached for writableProbeInterval, so high-frequency
// readiness probes (every /v1/healthz hits this) cost one disk write per
// interval, not one per request.
func (s *FS) CheckWritable() error {
	s.probeMu.Lock()
	defer s.probeMu.Unlock()
	if !s.probeAt.IsZero() && time.Since(s.probeAt) < writableProbeInterval {
		return s.probeErr
	}
	s.probeErr = s.probeWritable()
	s.probeAt = time.Now()
	return s.probeErr
}

// probeWritable performs the real create+write+remove probe.
func (s *FS) probeWritable() error {
	f, err := os.CreateTemp(s.dir, ".healthz"+tmpSuffix+"*")
	if err != nil {
		return fmt.Errorf("store: data dir not writable: %w", err)
	}
	name := f.Name()
	_, werr := f.Write([]byte("ok"))
	cerr := f.Close()
	os.Remove(name)
	if werr != nil {
		return fmt.Errorf("store: data dir not writable: %w", werr)
	}
	if cerr != nil {
		return fmt.Errorf("store: data dir not writable: %w", cerr)
	}
	return nil
}

// Close implements Store. Writes are already durable at return from each
// Put, so Close has nothing to flush.
func (s *FS) Close() error { return nil }
