package service

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/store"
)

// TestStatsBalanceMetrics drives a mixed script — sync decomposes with
// errors, a concurrent burst through the batcher, the batch route, a
// solve and a run job, stream sessions appended to, flushed and reaped —
// and then checks the books: every count /v1/stats reports equals the
// /metrics series it reads, so the two surfaces cannot drift apart.
func TestStatsBalanceMetrics(t *testing.T) {
	svc, ts := newMetricsServer(t, Config{CacheSize: 8, Workers: 2, BatchWindow: 2 * time.Millisecond,
		BatchMaxRequests: 4, Store: store.NewMem(), ResultTTL: time.Hour})

	for _, body := range []string{
		fmt.Sprintf(`{"bins":%s,"n":30,"threshold":0.9}`, table1JSON),
		fmt.Sprintf(`{"bins":%s,"thresholds":[0.5,0.9,0.95]}`, table1JSON),
		fmt.Sprintf(`{"bins":%s,"n":30,"threshold":0.9,"solver":"opq"}`, table1JSON),
		fmt.Sprintf(`{"bins":%s,"n":5,"threshold":0.9,"solver":"nope"}`, table1JSON),
		`{"bins":[],"n":5,"threshold":0.9}`,
	} {
		postJSON(t, ts.URL+"/v1/decompose", body)
	}
	burst := make([]string, 16)
	for i := range burst {
		burst[i] = fmt.Sprintf(`{"bins":%s,"n":%d,"threshold":0.95}`, table1JSON, 10+i)
	}
	postConcurrently(t, ts.URL+"/v1/decompose", burst)
	postJSON(t, ts.URL+"/v1/decompose/batch",
		fmt.Sprintf(`{"bins":%s,"instances":[{"n":12,"threshold":0.9},{"thresholds":[0.5,0.86]}]}`, table1JSON))

	for _, body := range []string{
		fmt.Sprintf(`{"kind":"solve","bins":%s,"n":40,"threshold":0.9}`, table1JSON),
		fmt.Sprintf(`{"kind":"run","bins":%s,"n":24,"threshold":0.9,"run":{"seed":7,"positive_rate":0.5}}`, table1JSON),
	} {
		resp, raw := postJSON(t, ts.URL+"/v1/jobs", body)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: %d (%s)", resp.StatusCode, raw)
		}
		var st JobStatus
		if err := decodeJobID(raw, &st); err != nil {
			t.Fatal(err)
		}
		waitTerminalHTTP(t, ts.URL, st.ID)
	}
	svc.jobs.persistWG.Wait()

	open := fmt.Sprintf(`{"bins":%s,"threshold":0.9}`, table1JSON)
	postJSON(t, ts.URL+"/v1/streams", open)
	postJSON(t, ts.URL+"/v1/streams/stream-1/tasks", `{"tasks":[0,1,2,3]}`)
	postJSON(t, ts.URL+"/v1/streams/stream-1/flush", "")
	postJSON(t, ts.URL+"/v1/streams", open)
	postJSON(t, ts.URL+"/v1/streams/stream-2/tasks", `{"tasks":[0,1]}`)
	svc.streams.sweep(time.Now().Add(2 * time.Hour)) // reaps both
	postJSON(t, ts.URL+"/v1/streams", open)

	var st Stats
	getJSON(t, ts.URL+"/v1/stats", &st)
	payload, _ := scrapeMetrics(t, ts.URL)
	series := parseSamples(t, payload)
	family := func(name string) float64 {
		var sum float64
		for k, v := range series {
			if k == name || strings.HasPrefix(k, name+"{") {
				sum += v
			}
		}
		return sum
	}

	for _, c := range []struct {
		stat   string
		got    float64
		series float64
	}{
		{"requests", float64(st.Requests), series["slade_solve_requests_total"]},
		{"requests (latency count)", float64(st.Requests), series["slade_solve_duration_seconds_count"]},
		{"errors", float64(st.Errors), series["slade_solve_errors_total"]},
		{"tasks", float64(st.Tasks), series["slade_solve_tasks_total"]},
		{"batch.batches", float64(st.Batch.Batches), family("slade_batch_flushes_total")},
		{"batch.batched_requests", float64(st.Batch.BatchedRequests), series["slade_batch_flush_size_sum"]},
		{"batch.batch_window_timeouts", float64(st.Batch.WindowTimeouts), series[`slade_batch_flushes_total{reason="window"}`]},
		{"cache.hits", float64(st.Cache.Hits), family("slade_cache_hits_total")},
		{"cache.misses", float64(st.Cache.Misses + st.Cache.Coalesced), family("slade_cache_misses_total")},
		{"cache.builds", float64(st.Cache.Builds), family("slade_cache_builds_total")},
		{"cache.entries", float64(st.Cache.Entries), series["slade_cache_entries"]},
		{"jobs.done", float64(st.Jobs.Done), series[`slade_jobs_total{state="done"}`]},
		{"jobs.persisted", float64(st.Jobs.Persisted), series["slade_jobs_persisted_total"]},
		{"jobs.runs", float64(st.Jobs.Runs), series["slade_executor_job_spend_count"]},
		{"jobs.run_spend", st.Jobs.RunSpend, series["slade_executor_job_spend_sum"]},
		{"streams.opened", float64(st.Streams.Opened), series["slade_stream_sessions_opened_total"]},
		{"streams.active", float64(st.Streams.Active), series["slade_stream_sessions_active"]},
		{"streams.flushed", float64(st.Streams.Flushed), series["slade_stream_flushes_total"]},
		{"streams.expired", float64(st.Streams.Expired), series["slade_stream_sessions_expired_total"]},
		{"streams.tasks_appended", float64(st.Streams.TasksAppended), series["slade_stream_tasks_total"]},
	} {
		if c.got != c.series {
			t.Errorf("/v1/stats %s = %v, /metrics says %v", c.stat, c.got, c.series)
		}
	}

	// The script moved every count it balances.
	if st.Errors == 0 || st.Batch.Batches == 0 || st.Batch.BatchedRequests < 17 || st.Jobs.Runs != 1 ||
		st.Jobs.RunSpend <= 0 || st.Streams.Opened != 3 || st.Streams.Active != 1 || st.Streams.Flushed != 1 ||
		st.Streams.Expired != 2 || st.Streams.TasksAppended != 6 {
		t.Errorf("script did not exercise the books: %+v", st)
	}
}

// parseSamples maps every sample line of an exposition, by its series
// (name plus rendered labels), to its value.
func parseSamples(t *testing.T, payload string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	for _, line := range strings.Split(payload, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("unparsable sample %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// postConcurrently posts every body to url at once and waits for every
// reply; a request that fails to complete fails the test.
func postConcurrently(t *testing.T, url string, bodies []string) {
	t.Helper()
	var wg sync.WaitGroup
	for _, body := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(url, "application/json", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}()
	}
	wg.Wait()
}
