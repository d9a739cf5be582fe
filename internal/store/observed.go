package store

import "time"

// Observer receives one callback per store operation: the operation name
// ("put_job", "get_job", "list_jobs", "delete_job"), its wall-clock
// duration, and its error (nil on success). Observers must be safe for
// concurrent use and cheap — they run inline on the calling goroutine.
type Observer func(op string, d time.Duration, err error)

// Checker is the optional health-probe facet of a Store. FS implements
// it with a write probe against its data directory; Mem does not need
// to (memory is always writable). The Observed wrapper forwards it.
type Checker interface {
	// CheckWritable returns nil when the store can currently accept
	// writes, or the reason it cannot.
	CheckWritable() error
}

// Observed wraps a Store so every operation is reported to obs. A nil
// store or nil observer returns s unchanged. The wrapper forwards the
// Checker facet when the underlying store provides one, so health
// probes keep working through the instrumentation layer.
func Observed(s Store, obs Observer) Store {
	if s == nil || obs == nil {
		return s
	}
	if c, ok := s.(Checker); ok {
		return &observedChecker{observed{s: s, obs: obs}, c}
	}
	return &observed{s: s, obs: obs}
}

type observed struct {
	s   Store
	obs Observer
}

type observedChecker struct {
	observed
	c Checker
}

func (o *observedChecker) CheckWritable() error { return o.c.CheckWritable() }

func (o *observed) observe(op string, start time.Time, err error) {
	o.obs(op, time.Since(start), err)
}

func (o *observed) PutJob(rec JobRecord) error {
	start := time.Now()
	err := o.s.PutJob(rec)
	o.observe("put_job", start, err)
	return err
}

func (o *observed) GetJob(id string) (JobRecord, error) {
	start := time.Now()
	rec, err := o.s.GetJob(id)
	o.observe("get_job", start, err)
	return rec, err
}

func (o *observed) ListJobs() ([]JobRecord, error) {
	start := time.Now()
	recs, err := o.s.ListJobs()
	o.observe("list_jobs", start, err)
	return recs, err
}

func (o *observed) DeleteJob(id string) error {
	start := time.Now()
	err := o.s.DeleteJob(id)
	o.observe("delete_job", start, err)
	return err
}

// Close is deliberately unobserved: it runs once at shutdown and its
// latency is not an operational signal.
func (o *observed) Close() error { return o.s.Close() }
