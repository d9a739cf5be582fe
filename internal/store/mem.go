package store

import (
	"bytes"
	"fmt"
	"sync"
)

// Mem is the in-memory Store: current pre-persistence behavior, useful for
// tests and deployments that explicitly accept losing state on restart.
// All methods are safe for concurrent use; records are deep-copied on the
// way in and out so callers cannot alias the store's internal state.
type Mem struct {
	mu   sync.Mutex
	jobs map[string]JobRecord
}

// NewMem returns an empty in-memory store.
func NewMem() *Mem {
	return &Mem{jobs: make(map[string]JobRecord)}
}

// copyRecord clones rec including its raw JSON payloads.
func copyRecord(rec JobRecord) JobRecord {
	rec.Summary = bytes.Clone(rec.Summary)
	rec.Plan = bytes.Clone(rec.Plan)
	rec.Report = bytes.Clone(rec.Report)
	return rec
}

// PutJob implements Store.
func (m *Mem) PutJob(rec JobRecord) error {
	if rec.Version == 0 {
		rec.Version = RecordVersion
	}
	if err := rec.Validate(); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.jobs[rec.ID] = copyRecord(rec)
	return nil
}

// GetJob implements Store.
func (m *Mem) GetJob(id string) (JobRecord, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rec, ok := m.jobs[id]
	if !ok {
		return JobRecord{}, fmt.Errorf("%w: job %q", ErrNotFound, id)
	}
	return copyRecord(rec), nil
}

// ListJobs implements Store.
func (m *Mem) ListJobs() ([]JobRecord, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]JobRecord, 0, len(m.jobs))
	for _, rec := range m.jobs {
		out = append(out, copyRecord(rec))
	}
	return out, nil
}

// DeleteJob implements Store.
func (m *Mem) DeleteJob(id string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.jobs[id]; !ok {
		return fmt.Errorf("%w: job %q", ErrNotFound, id)
	}
	delete(m.jobs, id)
	return nil
}

// Close implements Store; it drops all state.
func (m *Mem) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.jobs = make(map[string]JobRecord)
	return nil
}
