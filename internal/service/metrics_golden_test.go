package service

import (
	"flag"
	"fmt"
	"log/slog"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/store"
)

var updateMetricsGolden = flag.Bool("update-metrics", false, "rewrite testdata/metrics_parent.golden")

// TestMetricsMatchParentGolden pins what /metrics counts for a fixed
// request script to testdata/metrics_parent.golden, generated by the
// release whose /v1/stats still kept a second set of counters next to
// these instruments: every counter and gauge sample, every histogram
// _count and the non-time histograms' buckets and sums. Time-valued
// buckets and sums and slade_uptime_seconds are left out. Two services run the script:
//
//   - unbatched, with a store and a result TTL: the contract script (sync
//     decomposes and their errors, the batch route, a solve and a run
//     job, SSE, a stream session's lifecycle), then a second session
//     opened, appended to and reaped by a sweep an hour ahead;
//   - batched, with a window no test waits out and a cap of two: three
//     same-key pairs of concurrent decomposes, each one cap flush, over
//     two thresholds.
//
// The cache samples were regenerated twice. First when the cache began
// keeping queues by piece: the batch route's 0.86 partition builds Table
// 1's 0.9 queue, so its build widens 0.9's piece, one entry fewer. Then
// when the cache series lost their per-piece key label: each
// slade_cache_* family's samples became one unlabelled sample equal to
// their sum, and every sample now renders in sorted order. Nothing else
// moved.
//
// Regenerate only on a checkout whose counting is the reference:
//
//	go test ./internal/service -run TestMetricsMatchParentGolden -update-metrics
func TestMetricsMatchParentGolden(t *testing.T) {
	var got strings.Builder

	unbatched := New(Config{CacheSize: 8, Workers: 2, Store: store.NewMem(), ResultTTL: time.Hour,
		Slog: slog.New(slog.DiscardHandler)})
	t.Cleanup(func() { unbatched.Close() })
	ts := httptest.NewServer(NewHandler(unbatched))
	t.Cleanup(ts.Close)
	for _, step := range contractScript() {
		doContractStep(t, unbatched, ts.URL, step)
	}
	postJSON(t, ts.URL+"/v1/streams", fmt.Sprintf(`{"bins":%s,"threshold":0.95}`, table1JSON))
	postJSON(t, ts.URL+"/v1/streams/stream-2/tasks", `{"tasks":[0,1,2]}`)
	unbatched.streams.sweep(time.Now().Add(2 * time.Hour))
	unbatched.jobs.persistWG.Wait()
	got.WriteString("# unbatched\n")
	got.WriteString(clockFreeSamples(t, ts.URL))

	batched := New(Config{CacheSize: 8, Workers: 2, BatchWindow: time.Hour, BatchMaxRequests: 2,
		Slog: slog.New(slog.DiscardHandler)})
	t.Cleanup(func() { batched.Close() })
	bts := httptest.NewServer(NewHandler(batched))
	t.Cleanup(bts.Close)
	for _, thr := range []float64{0.9, 0.95, 0.9} {
		postConcurrently(t, bts.URL+"/v1/decompose", []string{
			fmt.Sprintf(`{"bins":%s,"n":12,"threshold":%v}`, table1JSON, thr),
			fmt.Sprintf(`{"bins":%s,"n":20,"threshold":%v}`, table1JSON, thr),
		})
	}
	got.WriteString("# batched\n")
	got.WriteString(clockFreeSamples(t, bts.URL))

	golden := filepath.Join("testdata", "metrics_parent.golden")
	if *updateMetricsGolden {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("/metrics drifted from the parent's counts\n--- got ---\n%s--- want ---\n%s", got.String(), want)
	}
}

// clockFreeSamples scrapes /metrics and keeps the samples a fixed script
// determines: everything but slade_uptime_seconds and the buckets and
// sums of histograms measured in seconds.
func clockFreeSamples(t *testing.T, base string) string {
	t.Helper()
	payload, _ := scrapeMetrics(t, base)
	var b strings.Builder
	for _, line := range strings.Split(payload, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name := line[:strings.IndexAny(line, "{ ")]
		if name == "slade_uptime_seconds" {
			continue
		}
		if family, ok := strings.CutSuffix(name, "_bucket"); ok && strings.HasSuffix(family, "_seconds") {
			continue
		}
		if family, ok := strings.CutSuffix(name, "_sum"); ok && strings.HasSuffix(family, "_seconds") {
			continue
		}
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return b.String()
}
