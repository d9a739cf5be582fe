package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/binset"
	"repro/internal/core"
	"repro/internal/hetero"
	"repro/internal/store"
)

// quietLogger discards persistence warnings in tests that don't assert
// on them.
func quietLogger() *log.Logger { return log.New(io.Discard, "", 0) }

// openFS opens a filesystem store in a per-test temp dir.
func openFS(t *testing.T, dir string) *store.FS {
	t.Helper()
	st, err := store.OpenFS(dir, quietLogger())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// submitAndWait runs one homogeneous solve job to completion.
func submitAndWait(t *testing.T, svc *Service, n int) string {
	t.Helper()
	in, err := core.NewHomogeneous(binset.Table1(), n, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	id, err := svc.Jobs().Submit(JobRequest{Instance: in})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, svc, id); st.State != JobDone {
		t.Fatalf("job %s settled %s: %s", id, st.State, st.Error)
	}
	return id
}

// TestJobsSpillAndReplay is the tentpole's core contract: terminal jobs
// written by one Service are served — status, summary and full plan — by
// a second Service opened on the same store, and fresh submissions never
// reuse recovered ids.
func TestJobsSpillAndReplay(t *testing.T) {
	dir := t.TempDir()
	svc := New(Config{CacheSize: 8, Workers: 2, Store: openFS(t, dir), Logger: quietLogger()})
	id := submitAndWait(t, svc, 100)
	firstPlan := jobPlan(t, svc.Jobs(), id)
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: fresh Service, same directory.
	svc2 := New(Config{CacheSize: 8, Workers: 2, Store: openFS(t, dir), Logger: quietLogger()})
	defer svc2.Close()
	st, err := svc2.Jobs().Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobDone || st.Summary == nil || st.Summary.Cost <= 0 {
		t.Fatalf("recovered status: %+v", st)
	}
	plan := jobPlan(t, svc2.Jobs(), id)
	if plan.NumUses() != firstPlan.NumUses() {
		t.Fatalf("recovered plan has %d uses, want %d", plan.NumUses(), firstPlan.NumUses())
	}
	if got := svc2.Jobs().Stats().Recovered; got != 1 {
		t.Fatalf("recovered counter: %d", got)
	}

	id2 := submitAndWait(t, svc2, 50)
	if id2 == id {
		t.Fatalf("fresh submission reused recovered id %s", id)
	}
}

// TestFailedAndCanceledJobsPersist checks the non-Done terminal states
// survive a restart with their error / state intact: a failed job, a job
// canceled while running and a job canceled while still pending each
// settle through exactly one terminal frame, are spilled, and keep their
// ids reserved — a fresh submission after the restart gets a new one.
func TestFailedAndCanceledJobsPersist(t *testing.T) {
	dir := t.TempDir()
	svc := New(Config{CacheSize: 8, Workers: 2, MaxJobs: 1, Store: openFS(t, dir), Logger: quietLogger()})
	ok := core.MustHomogeneous(binset.Table1(), 10, 0.9)
	if err := svc.RegisterSolver("broken", core.SolverFunc{
		SolverName: "broken",
		Fn:         func(*core.Instance) (*core.Plan, error) { return nil, errors.New("no plan today") },
	}); err != nil {
		t.Fatal(err)
	}
	failed, err := svc.Jobs().Submit(JobRequest{Instance: ok, Solver: "broken"})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, svc, failed); st.State != JobFailed {
		t.Fatalf("job on the broken solver settled %s", st.State)
	}

	// MaxJobs=1: the slow job occupies the slot, the next one stays pending.
	started, block := make(chan struct{}), make(chan struct{})
	if err := svc.RegisterSolver("slow", core.SolverFunc{
		SolverName: "slow",
		Fn: func(in *core.Instance) (*core.Plan, error) {
			close(started)
			<-block
			return &core.Plan{}, nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	running, err := svc.Jobs().Submit(JobRequest{Instance: ok, Solver: "slow"})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	pending, err := svc.Jobs().Submit(JobRequest{Instance: ok})
	if err != nil {
		t.Fatal(err)
	}
	if st, err := svc.Jobs().Status(pending); err != nil || st.State != JobPending {
		t.Fatalf("job behind the full slot: %+v, %v", st, err)
	}
	for _, id := range []string{pending, running} {
		if _, err := svc.Jobs().Cancel(id); err != nil {
			t.Fatal(err)
		}
	}
	close(block)
	for _, id := range []string{failed, running, pending} {
		waitTerminal(t, svc, id)
		_, _, feed, err := svc.Jobs().snapshot(id)
		if err != nil {
			t.Fatal(err)
		}
		evs, _, _ := feed.since(0)
		terminal := 0
		for _, ev := range evs {
			if ev.State.Terminal() {
				terminal++
			}
		}
		if terminal != 1 {
			t.Errorf("%s: %d terminal frames in %+v, want exactly 1", id, terminal, evs)
		}
	}
	svc.Close()

	svc2 := New(Config{CacheSize: 8, Workers: 2, Store: openFS(t, dir), Logger: quietLogger()})
	defer svc2.Close()
	st, err := svc2.Jobs().Status(failed)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobFailed || !strings.Contains(st.Error, "no plan today") {
		t.Fatalf("recovered failed job: %+v", st)
	}
	if _, plan, _, _ := svc2.Jobs().snapshot(failed); plan != nil {
		t.Fatal("recovered failed job serves a plan")
	}
	for name, id := range map[string]string{"running": running, "pending": pending} {
		st, err := svc2.Jobs().Status(id)
		if err != nil {
			t.Fatalf("job canceled while %s is gone after the restart: %v", name, err)
		}
		if st.State != JobCanceled {
			t.Errorf("job canceled while %s recovered as %s", name, st.State)
		}
	}
	fresh, err := svc2.Jobs().Submit(JobRequest{Instance: ok})
	if err != nil {
		t.Fatal(err)
	}
	if fresh == failed || fresh == running || fresh == pending {
		t.Fatalf("fresh submission reuses recovered id %s", fresh)
	}
	waitTerminal(t, svc2, fresh) // its spill must land before the temp dir goes
}

// TestResultTTLExpiry checks both eviction paths: the lazy check on
// Status and the background janitor, and that expiry also removes the
// durable record.
func TestResultTTLExpiry(t *testing.T) {
	dir := t.TempDir()
	fsStore := openFS(t, dir)
	const ttl = 50 * time.Millisecond
	svc := New(Config{CacheSize: 8, Workers: 2, Store: fsStore, ResultTTL: ttl, Logger: quietLogger()})
	defer svc.Close()

	id := submitAndWait(t, svc, 60)
	if _, err := svc.Jobs().Status(id); err != nil {
		t.Fatalf("fresh result must be visible: %v", err)
	}
	svc.Jobs().persistWG.Wait() // the spill runs after the state turns terminal
	if _, err := fsStore.GetJob(id); err != nil {
		t.Fatalf("fresh result must be durable: %v", err)
	}

	time.Sleep(2 * ttl)
	if _, err := svc.Jobs().Status(id); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("expired result: want ErrUnknownJob, got %v", err)
	}
	// The janitor (or the lazy path above) must also reap the record.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := fsStore.GetJob(id); errors.Is(err, store.ErrNotFound) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("expired record never deleted from the store")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := svc.Jobs().Stats().Expired; got == 0 {
		t.Fatal("expired counter never incremented")
	}
}

// TestReplaySkipsExpiredRecords: results that outlived the TTL while the
// process was down are not resurrected by replay.
func TestReplaySkipsExpiredRecords(t *testing.T) {
	dir := t.TempDir()
	svc := New(Config{CacheSize: 8, Workers: 2, Store: openFS(t, dir), Logger: quietLogger()})
	id := submitAndWait(t, svc, 60)
	svc.Close()

	time.Sleep(30 * time.Millisecond)
	fsStore := openFS(t, dir)
	svc2 := New(Config{CacheSize: 8, Workers: 2, Store: fsStore,
		ResultTTL: 10 * time.Millisecond, Logger: quietLogger()})
	defer svc2.Close()
	if _, err := svc2.Jobs().Status(id); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("expired-while-down result resurrected: %v", err)
	}
	if got := svc2.Jobs().Stats().Recovered; got != 0 {
		t.Fatalf("recovered counter counts expired record: %d", got)
	}
	// Replay reaps the expired record file itself; the janitor no longer
	// scans the store for orphans.
	if _, err := fsStore.GetJob(id); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("expired record not reaped at replay: %v", err)
	}
}

// TestReplaySkipsCorruptRecordWithWarning: a record that cannot be read —
// a torn file, or an intact envelope whose plan holds a use no bin could
// hold — is skipped with one logged warning at Service construction, never
// a crash and never a job that fails later at serve time, and the good
// records still recover.
func TestReplaySkipsCorruptRecordWithWarning(t *testing.T) {
	dir := t.TempDir()
	svc := New(Config{CacheSize: 8, Workers: 2, Store: openFS(t, dir), Logger: quietLogger()})
	id := submitAndWait(t, svc, 60)
	svc.Close()

	torn := filepath.Join(dir, "jobs", "job-999.json")
	if err := os.WriteFile(torn, []byte(`{"version":1,"id":"job-999","state":"do`), 0o644); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(filepath.Join(dir, "jobs", id+".json"))
	if err != nil {
		t.Fatal(err)
	}
	malformed := map[string]string{
		"job-901": `{"uses":[{"cardinality":0,"tasks":[1]}]}`,     // non-positive cardinality
		"job-902": `{"uses":[{"cardinality":2,"tasks":[]}]}`,      // empty use
		"job-903": `{"uses":[{"cardinality":2,"tasks":[0,1,2]}]}`, // more tasks than the bin holds
	}
	for badID, plan := range malformed {
		var rec map[string]json.RawMessage
		if err := json.Unmarshal(good, &rec); err != nil {
			t.Fatal(err)
		}
		rec["id"] = json.RawMessage(`"` + badID + `"`)
		rec["plan"] = json.RawMessage(plan)
		data, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "jobs", badID+".json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	var buf bytes.Buffer
	logger := log.New(&buf, "", 0)
	st, err := store.OpenFS(dir, logger)
	if err != nil {
		t.Fatal(err)
	}
	svc2 := New(Config{CacheSize: 8, Workers: 2, Store: st, Logger: logger})
	defer svc2.Close()
	if _, err := svc2.Jobs().Status(id); err != nil {
		t.Fatalf("good record lost alongside corrupt ones: %v", err)
	}
	if !strings.Contains(buf.String(), "job-999") {
		t.Fatalf("no warning logged for corrupt record; log:\n%s", buf.String())
	}
	for badID := range malformed {
		if _, err := svc2.Jobs().Status(badID); err == nil {
			t.Errorf("%s: a record with a malformed plan was recovered", badID)
		}
		warnings := 0
		for _, line := range strings.Split(buf.String(), "\n") {
			if strings.Contains(line, "skipping unreadable job record") && strings.Contains(line, badID) {
				warnings++
			}
		}
		if warnings != 1 {
			t.Errorf("%s: %d skip warnings, want 1; log:\n%s", badID, warnings, buf.String())
		}
	}
}

// TestParentDataDirBoots: a data dir written by earlier releases
// (testdata/parent_datadir: a solve and a run record and
// snapshots/opqcache.bin from the last release that persisted the OPQ
// cache, and a "kind":"stream" record from the last release that ran
// stream jobs) boots, and boots again, serving all three jobs
// byte-identically to what those releases served for them, with the
// snapshots file never touched.
func TestParentDataDirBoots(t *testing.T) {
	src := filepath.Join("testdata", "parent_datadir")
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(src)); err != nil {
		t.Fatal(err)
	}
	snapPath := filepath.Join("snapshots", "opqcache.bin")
	snapshot, err := os.ReadFile(filepath.Join(src, snapPath))
	if err != nil {
		t.Fatal(err)
	}
	for _, boot := range []string{"first boot", "second boot"} {
		svc := New(Config{Store: openFS(t, dir), Logger: quietLogger()})
		ts := httptest.NewServer(NewHandler(svc))
		for _, id := range []string{"job-1", "job-2", "job-3"} {
			want, err := os.ReadFile(filepath.Join("testdata", "parent_"+id+".response.json"))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "?include_plan=true")
			if err != nil {
				t.Fatal(err)
			}
			got, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
				t.Errorf("%s: %s: status %d, body differs from the parent's:\n%s", boot, id, resp.StatusCode, got)
			}
		}
		if rec := svc.Stats().Jobs.Recovered; rec != 3 {
			t.Errorf("%s: %d jobs recovered, want 3", boot, rec)
		}
		ts.Close()
		svc.Close()
		if got, err := os.ReadFile(filepath.Join(dir, snapPath)); err != nil || !bytes.Equal(got, snapshot) {
			t.Errorf("%s: snapshots/opqcache.bin touched: err %v, %d bytes", boot, err, len(got))
		}
	}
}

// TestVersion1StreamRecordReplays: a version-1 record has no kind, and one
// whose solver is "stream" still replays as a stream job.
func TestVersion1StreamRecordReplays(t *testing.T) {
	j, interrupted, err := jobFromRecord(store.JobRecord{
		Version: 1, ID: "job-4", State: string(JobDone), Solver: "stream",
		Plan: []byte(`{"uses":[{"cardinality":1,"tasks":[0]}]}`),
	}, time.Now())
	if err != nil || interrupted {
		t.Fatalf("err %v, interrupted %v", err, interrupted)
	}
	if st := j.statusLocked(); st.Kind != "stream" || st.State != JobDone {
		t.Fatalf("replayed as %+v", st)
	}
}

// TestRecordPlanBytesUnchanged: a job record stores the plan's own
// encoding, which must be json.Marshal's bytes for the plan byte for byte
// — on an identity and an explicit arena, for a PlanFromUses plan, an
// OPQ-Extended one and the empty plan — so every stored record reads as it
// did when records went through json.Marshal.
func TestRecordPlanBytesUnchanged(t *testing.T) {
	jelly := binset.MustJelly(20)
	svc := New(Config{CacheSize: 8, Workers: 2, Slog: slog.New(slog.DiscardHandler)})
	defer svc.Close()
	ident, err := svc.DecomposeWith(context.Background(), svc.DefaultSolver(), core.MustHomogeneous(jelly, 30_000, 0.9))
	if err != nil {
		t.Fatal(err)
	}
	if ident.Arena != nil {
		t.Fatal("the homogeneous solve's plan has an explicit arena; the identity case tests nothing")
	}
	// The same runs over the ids in reverse: an explicit arena.
	arena := make([]int, ident.NumTasks())
	for i := range arena {
		arena[i] = len(arena) - 1 - i
	}
	explicit := &core.Plan{Arena: arena, Runs: ident.Runs}
	fromUses, err := core.PlanFromUses([]core.BinUse{
		{Cardinality: 3, Tasks: []int{0, 1, 2}}, {Cardinality: 1, Tasks: []int{6}}, {Cardinality: 3, Tasks: []int{6, 7}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ths := make([]float64, 500)
	for i := range ths {
		ths[i] = 0.85 + 0.03*float64(i%4)
	}
	ext, err := hetero.Solve(core.MustHeterogeneous(jelly, ths))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		plan *core.Plan
	}{
		{"identity", ident}, {"explicit", explicit}, {"PlanFromUses", fromUses},
		{"OPQ-Extended", ext}, {"empty", &core.Plan{}}, {"empty runs", &core.Plan{Runs: []core.BlockRun{}}},
	} {
		rec, err := recordFromJob(&job{id: "job-1", kind: KindSolve, state: JobDone, plan: c.plan})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want, err := json.Marshal(c.plan)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !bytes.Equal(rec.Plan, want) {
			t.Errorf("%s: record plan differs from json.Marshal's:\n got %.200s\nwant %.200s", c.name, rec.Plan, want)
		}
		if c.plan.NumUses() == 0 && string(rec.Plan) != `{"uses":null}` {
			t.Errorf("%s: record plan %s, want {\"uses\":null}", c.name, rec.Plan)
		}
	}
}

// TestPlanMarshalAllocBudget is the clock-free gate on the plan encode
// every durable record pays: MarshalJSON of a jobs-durable plan (Jelly-20,
// t = 0.9, n = 2,000) allocates exactly its bytes.Buffer and the one
// 13,568 B slice the buffer sizes for the body's single Write — 2
// allocations and 13,616 B; 3 and 27,184 B under -race, whose
// instrumentation makes that slice twice. Commit a08cf0b, whose encoder
// also made a 32 KiB chunk per call, reads 3 and 46,384 B on the same
// loop.
func TestPlanMarshalAllocBudget(t *testing.T) {
	allocsBudget, bytesBudget := 2.0, 13_616.0
	if raceBuild {
		allocsBudget, bytesBudget = 3, 27_184
	}
	svc := New(Config{CacheSize: 8, Workers: 2, Slog: slog.New(slog.DiscardHandler)})
	plan, err := svc.DecomposeWith(context.Background(), svc.DefaultSolver(), core.MustHomogeneous(binset.MustJelly(20), 2000, 0.9))
	svc.Close() // nothing of the service's may allocate during the count
	if err != nil {
		t.Fatal(err)
	}
	allocs, perOp := allocsAndBytesPerRun(50, func() {
		if _, err := plan.MarshalJSON(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("MarshalJSON of a jobs-durable plan: %.0f allocs/op, %.0f B/op", allocs, perOp)
	if allocs > allocsBudget || perOp > bytesBudget {
		t.Errorf("MarshalJSON of a jobs-durable plan: %.0f allocs and %.0f B per call, over the committed budget of %.0f and %.0f",
			allocs, perOp, allocsBudget, bytesBudget)
	}
}

// errStoreDown is every failure failingStore reports.
var errStoreDown = errors.New("store down")

// failingStore fails every write and list with errStoreDown, answers
// deletes with deleteErr and write probes with checkErr. It has no
// GetJob: the service never reads one record back, so a call panics.
type failingStore struct {
	store.Store
	deleteErr, checkErr error
}

func (s *failingStore) PutJob(store.JobRecord) error         { return errStoreDown }
func (s *failingStore) ListJobs() ([]store.JobRecord, error) { return nil, errStoreDown }
func (s *failingStore) DeleteJob(string) error               { return s.deleteErr }
func (s *failingStore) CheckWritable() error                 { return s.checkErr }
func (s *failingStore) Close() error                         { return nil }

// TestStoreErrorsCountedPerOp: each store access the job manager makes —
// the replay's list, a settled job's spill, an expired job's delete — is
// timed on slade_store_op_duration_seconds and, when it fails, counted on
// slade_store_errors_total under its own op; a delete that finds no
// record is timed but is not a failure.
func TestStoreErrorsCountedPerOp(t *testing.T) {
	st := &failingStore{deleteErr: errStoreDown}
	svc := New(Config{CacheSize: 8, Workers: 1, Store: st, ResultTTL: time.Hour, Logger: quietLogger()})
	defer svc.Close()
	m := svc.Jobs()
	expire := func(id string) {
		t.Helper()
		m.mu.Lock()
		m.jobs.byID[id].finished = m.jobs.byID[id].finished.Add(-2 * time.Hour)
		m.mu.Unlock()
		if _, err := m.Status(id); !errors.Is(err, ErrUnknownJob) {
			t.Fatalf("read of an expired job: %v, want ErrUnknownJob", err)
		}
	}
	failed := submitAndWait(t, svc, 10)
	m.persistWG.Wait()
	expire(failed)
	st.deleteErr = fmt.Errorf("%w: job %q", store.ErrNotFound, "job-2")
	expire(submitAndWait(t, svc, 10))
	m.persistWG.Wait()

	samples := parseSamples(t, string(svc.Metrics()))
	for op, want := range map[string][2]float64{
		"list_jobs":  {1, 1},
		"put_job":    {2, 2},
		"delete_job": {2, 1},
		"get_job":    {0, 0},
	} {
		label := `{op="` + op + `"}`
		if got := [2]float64{samples["slade_store_op_duration_seconds_count"+label], samples["slade_store_errors_total"+label]}; got != want {
			t.Errorf("op %s: %v timed, %v failed; want %v", op, got[0], got[1], want)
		}
	}
}

// TestHealthzDegradedStore: a store whose write probe fails makes
// /v1/healthz answer 503 "degraded" with the probe's error.
func TestHealthzDegradedStore(t *testing.T) {
	svc := New(Config{CacheSize: 8, Workers: 1, Store: &failingStore{checkErr: errStoreDown}, Logger: quietLogger()})
	defer svc.Close()
	rec := httptest.NewRecorder()
	NewHandler(svc).ServeHTTP(rec, httptest.NewRequest("GET", "/v1/healthz", nil))
	var h Health
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusServiceUnavailable || h.Status != "degraded" || h.Persistence.Writable || h.Persistence.Error != errStoreDown.Error() {
		t.Fatalf("healthz with an unwritable store: %d %s", rec.Code, rec.Body)
	}
}
