// Package store is the durable state layer behind the decomposition
// service: a small pluggable Store interface over versioned JSON records
// of terminal job results, with an in-memory implementation for tests and
// ephemeral deployments and a crash-safe filesystem implementation for
// production.
//
// The service spills every terminal job here and replays the store at
// construction, so a sladed restart serves previously completed plans
// without re-solving. The interface is deliberately narrow
// (put/get/list/delete) so a later multi-node distribution layer can drop
// in a replicated implementation without touching the service.
package store

import (
	"encoding/json"
	"errors"
	"time"
)

// RecordVersion is the version stamped into every job record this code
// writes. Readers accept versions in [1, RecordVersion]; a record from a
// newer version is rejected (Get) or skipped with a warning (List) instead
// of being half-understood. See docs/FORMATS.md for the format history.
//
// Version history: 1 — initial record (plan + summary); 2 — adds Kind and
// the ExecutionReport payload of run jobs. Version-1 records (no kind, no
// report) remain readable.
const RecordVersion = 2

// ErrNotFound tags lookups of records that are absent from the store.
// Callers branch on it with errors.Is.
var ErrNotFound = errors.New("store: not found")

// JobRecord is the durable form of one terminal job. Summary and Plan are
// kept as raw JSON so the store stays independent of the service's wire
// types: the store round-trips the bytes verbatim and the service owns
// their schema (documented in docs/FORMATS.md).
type JobRecord struct {
	// Version is the record format version; writers stamp RecordVersion.
	Version int `json:"version"`
	// ID is the job id ("job-N"); it doubles as the storage key.
	ID string `json:"id"`
	// Kind is the job kind ("solve", "stream" or "run"); empty in
	// version-1 records, where "stream" is recoverable from Solver and
	// everything else is a solve job.
	Kind string `json:"kind,omitempty"`
	// State is the terminal job state ("done", "failed" or "canceled").
	State string `json:"state"`
	// Solver names the solver that planned the job.
	Solver string `json:"solver"`
	// Submitted/Started/Finished are the job's lifecycle timestamps.
	Submitted time.Time `json:"submitted"`
	Started   time.Time `json:"started,omitzero"`
	Finished  time.Time `json:"finished,omitzero"`
	// Error holds the failure message of a failed job.
	Error string `json:"error,omitempty"`
	// Summary is the service's PlanSummary JSON for a done job.
	Summary json.RawMessage `json:"summary,omitempty"`
	// Plan is the core.Plan JSON ({"uses": [...]}) for a done job.
	Plan json.RawMessage `json:"plan,omitempty"`
	// Report is the service's ExecutionReport JSON for a done run job —
	// the achieved-reliability/spend outcome of executing the plan.
	Report json.RawMessage `json:"report,omitempty"`
}

// Validate checks the invariants every stored record must satisfy.
func (r *JobRecord) Validate() error {
	if r.Version < 1 || r.Version > RecordVersion {
		return errors.New("store: unsupported job record version")
	}
	if r.ID == "" {
		return errors.New("store: job record missing id")
	}
	if r.State == "" {
		return errors.New("store: job record missing state")
	}
	return nil
}

// Store is the pluggable durable state interface. Implementations must be
// safe for concurrent use by multiple goroutines; each method is atomic in
// isolation but callers get no cross-method transactions. Mem and FS are
// the two in-tree implementations.
type Store interface {
	// PutJob inserts or replaces the record keyed by rec.ID.
	PutJob(rec JobRecord) error
	// GetJob returns the record for id, or an error wrapping ErrNotFound.
	GetJob(id string) (JobRecord, error)
	// ListJobs returns every readable record in unspecified order.
	// Implementations skip (never fail on) individually corrupt records.
	ListJobs() ([]JobRecord, error)
	// DeleteJob removes the record for id, or returns ErrNotFound.
	DeleteJob(id string) error

	// Close releases the store's resources. The store must not be used
	// after Close.
	Close() error
}
