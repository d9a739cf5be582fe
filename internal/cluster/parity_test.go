package cluster_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/binset"
	"repro/internal/cluster/testcluster"
	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/service"
	"repro/internal/store"
)

func quiet() *log.Logger { return log.New(io.Discard, "", 0) }

// startCluster boots a 3-node cluster on sladed's batch window.
func startCluster(t *testing.T) *testcluster.Cluster {
	t.Helper()
	tc, err := testcluster.Start(testcluster.Options{Nodes: 3, Workers: 2, Configure: func(_ int, cfg *service.Config) {
		cfg.BatchWindow = service.DefaultBatchWindow
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tc.Close)
	return tc
}

// assertPeersIdle fails unless nodes 1 and 2 served nothing: no HTTP
// request reached them and no solve ran on them.
func assertPeersIdle(t *testing.T, tc *testcluster.Cluster) {
	t.Helper()
	for i := 1; i < len(tc.Nodes); i++ {
		st := tc.Node(i).Service.Stats()
		if st.Requests != 0 || endpointRequests(st) != 0 {
			t.Fatalf("node %d was contacted: %d solves, %d HTTP requests", i, st.Requests, endpointRequests(st))
		}
	}
}

func endpointRequests(st service.Stats) (n uint64) {
	for _, e := range st.Endpoints {
		n += e.Requests
	}
	return n
}

var (
	elapsedField = regexp.MustCompile(`"elapsed_ms":[0-9.e+-]+`)
	clusterName  = `"solver":"` + service.ClusterSolverName + `"`
	defaultName  = `"solver":"` + service.DefaultSolverName + `"`
)

// post sends one request and returns the body with the two fields that
// may differ between a peer-configured node and a single node rewritten:
// the wall-clock elapsed_ms, and the name the default route is reported
// under ("cluster" there, "sharded" here — same route, kept wire name).
func post(t *testing.T, base, path, accept, body string) []byte {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d: %s", path, resp.StatusCode, data)
	}
	data = elapsedField.ReplaceAll(data, []byte(`"elapsed_ms":0`))
	return bytes.ReplaceAll(data, []byte(clusterName), []byte(defaultName))
}

// TestClusterNoDialParity is the pin that replaced the fan-out's fault
// matrix: node 0 of a 3-node cluster serves, byte for byte, the bodies a
// single node serves — summaries, full plans in both encodings, a
// heterogeneous instance, a batch, and a request naming "cluster" — while
// no peer is dialled and nodes 1 and 2 stay idle.
func TestClusterNoDialParity(t *testing.T) {
	tc := startCluster(t)
	entry := tc.Node(0)

	ref := service.New(service.Config{Workers: 2, BatchWindow: service.DefaultBatchWindow, Logger: quiet()})
	defer ref.Close()
	single := httptest.NewServer(service.NewHandler(ref))
	defer single.Close()

	menu := `[{"cardinality":1,"confidence":0.9,"cost":0.1},{"cardinality":2,"confidence":0.85,"cost":0.18},{"cardinality":3,"confidence":0.8,"cost":0.24}]`
	thresholds := make([]string, 500)
	for i := range thresholds {
		thresholds[i] = fmt.Sprintf("%.3f", 0.85+0.001*float64(i%120))
	}
	members := make([]string, 64)
	for i := range members {
		members[i] = fmt.Sprintf(`{"n":%d,"threshold":0.95}`, 1000+37*i)
	}
	homogeneous := func(extra string) string {
		return fmt.Sprintf(`{"bins":%s,"n":100000,"threshold":0.95%s}`, menu, extra)
	}
	cases := []struct {
		name, path, accept, body string
		// singleBody, when set, is what the single node is sent instead:
		// it has no solver named "cluster".
		singleBody string
	}{
		{name: "homogeneous summary", path: "/v1/decompose", body: homogeneous("")},
		{name: "full plan JSON", path: "/v1/decompose", body: homogeneous(`,"include_plan":true`)},
		{name: "full plan NDJSON", path: "/v1/decompose", accept: "application/x-ndjson", body: homogeneous(`,"include_plan":true`)},
		{name: "heterogeneous", path: "/v1/decompose", body: fmt.Sprintf(`{"bins":%s,"thresholds":[%s],"include_plan":true}`, menu, strings.Join(thresholds, ","))},
		{name: "64-member batch", path: "/v1/decompose/batch", body: fmt.Sprintf(`{"bins":%s,"instances":[%s]}`, menu, strings.Join(members, ","))},
		{name: "explicit cluster", path: "/v1/decompose", body: homogeneous(`,"include_plan":true,"solver":"cluster"`), singleBody: homogeneous(`,"include_plan":true`)},
	}
	for _, c := range cases {
		want := c.body
		if c.singleBody != "" {
			want = c.singleBody
		}
		got, alone := post(t, entry.URL, c.path, c.accept, c.body), post(t, single.URL, c.path, c.accept, want)
		if !bytes.Equal(got, alone) {
			t.Errorf("%s: clustered body (%d bytes) differs from single-node body (%d bytes)", c.name, len(got), len(alone))
		}
	}

	// Same route, not just same answer: the batcher saw the same traffic.
	if got, want := entry.Service.Stats().Batch.BatchedRequests, ref.Stats().Batch.BatchedRequests; got != want || got == 0 {
		t.Errorf("batched requests: clustered %d, single node %d", got, want)
	}
	st := entry.Service.Stats()
	if st.Cluster == nil || len(st.Cluster.Peers) != 2 || st.Cluster.SpansRemote+st.Cluster.SpansLocal+st.Cluster.Fallbacks != 0 {
		t.Errorf("cluster stats block: %+v", st.Cluster)
	}
	h := entry.Service.Health()
	if h.Status != "ok" || h.Cluster == nil || len(h.Cluster.Peers) != 2 || h.Cluster.Degraded {
		t.Errorf("health: %+v cluster %+v", h, h.Cluster)
	}
	for _, p := range h.Cluster.Peers {
		if p.State != "unused" {
			t.Errorf("peer %s reported %q: a peer that is never contacted has no health to report", p.URL, p.State)
		}
	}
	assertPeersIdle(t, tc)
}

// TestStoredClusterJobReplays: a job record the parent commit wrote with
// solver "cluster" (testdata/parent_store, planned by the span fan-out)
// is replayed at boot and served byte-identically to what the parent
// served for it — on a node that still has peers, across a second
// restart, and on a node whose peer list has since been dropped.
func TestStoredClusterJobReplays(t *testing.T) {
	record, err := os.ReadFile(filepath.Join("testdata", "parent_store", "jobs", "job-1.json"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "parent_job-1.response.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "jobs"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "jobs", "job-1.json"), record, 0o644); err != nil {
		t.Fatal(err)
	}
	boots := []struct {
		name  string
		peers []string
	}{
		{"with peers", []string{"http://peer-a:7001"}},
		{"restarted", []string{"http://peer-a:7001"}},
		{"peers dropped", nil},
	}
	for _, b := range boots {
		fs, err := store.OpenFS(dir, quiet())
		if err != nil {
			t.Fatal(err)
		}
		svc := service.New(service.Config{Store: fs, Logger: quiet(), Peers: b.peers, ClusterSelf: "http://self:7000"})
		srv := httptest.NewServer(service.NewHandler(svc))
		resp, err := http.Get(srv.URL + "/v1/jobs/job-1?include_plan=true")
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
			t.Errorf("%s: status %d, body differs from the parent's:\n%s", b.name, resp.StatusCode, got)
		}
		if rec := svc.Stats().Jobs.Recovered; rec != 1 {
			t.Errorf("%s: %d jobs recovered, want 1", b.name, rec)
		}
		srv.Close()
		svc.Close()
	}
}

// TestClusterChaosShortMatrixParity serves the ShortMatrix scenario
// workload, every job in flight at once, through node 0 of a 3-node
// cluster: every request must succeed and every plan must cost exactly —
// bit for bit — what a single-node solve of the same instance costs. (It
// used to kill, revive and corrupt peers meanwhile; with no peer dialled
// there is no fault left to inject.)
func TestClusterChaosShortMatrixParity(t *testing.T) {
	tc := startCluster(t)
	ref := service.New(service.Config{Workers: 2, Logger: quiet()})
	defer ref.Close()

	m := scenario.ShortMatrix(1)
	type job struct {
		cell string
		idx  int
		in   *core.Instance
	}
	var jobs []job
	for _, cell := range m.Cells {
		ins, err := cell.Instances(scenario.DeriveSeed(m.Seed, cell.Name()))
		if err != nil {
			t.Fatalf("cell %s: %v", cell.Name(), err)
		}
		for i, in := range ins {
			jobs = append(jobs, job{cell: cell.Name(), idx: i, in: in})
		}
	}
	if len(jobs) < 12 {
		t.Fatalf("implausibly small workload: %d jobs", len(jobs))
	}

	entry := tc.Node(0).Service
	var wg sync.WaitGroup
	errs := make([]error, len(jobs))
	costs := make([]float64, len(jobs))
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, j job) {
			defer wg.Done()
			_, sum, err := entry.DecomposeSummarized(context.Background(), entry.DefaultSolver(), j.in)
			errs[i], costs[i] = err, sum.Cost
		}(i, j)
	}
	wg.Wait()
	for i, j := range jobs {
		if errs[i] != nil {
			t.Fatalf("job %s/%d failed: %v", j.cell, j.idx, errs[i])
		}
		_, want, err := ref.DecomposeSummarized(context.Background(), service.DefaultSolverName, j.in)
		if err != nil {
			t.Fatalf("reference solve %s/%d: %v", j.cell, j.idx, err)
		}
		if costs[i] != want.Cost {
			t.Fatalf("job %s/%d cost %v, single-node cost %v — a peer list changed the answer", j.cell, j.idx, costs[i], want.Cost)
		}
	}
	assertPeersIdle(t, tc)
}

// TestClusterSolveDeterministic pins byte-determinism of the "cluster"
// solver name across scheduler parallelism (GOMAXPROCS 1/2/4): the same
// use sequence and cost bits every time, and the ones a single node
// gives.
func TestClusterSolveDeterministic(t *testing.T) {
	tc := startCluster(t)
	ref := service.New(service.Config{Workers: 2, Logger: quiet()})
	defer ref.Close()

	in, err := core.NewHomogeneous(binset.Table1(), 30*6+5, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	basePlan, baseSum, err := ref.DecomposeSummarized(context.Background(), service.DefaultSolverName, in)
	if err != nil {
		t.Fatal(err)
	}
	baseUses := basePlan.Materialized()

	entry := tc.Node(0).Service
	for _, procs := range []int{1, 2, 4} {
		prev := runtime.GOMAXPROCS(procs)
		plan, sum, err := entry.DecomposeSummarized(context.Background(), service.ClusterSolverName, in)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		if sum.Cost != baseSum.Cost {
			t.Fatalf("GOMAXPROCS=%d: cost %v, single node %v", procs, sum.Cost, baseSum.Cost)
		}
		if !reflect.DeepEqual(plan.Materialized(), baseUses) {
			t.Fatalf("GOMAXPROCS=%d: use sequence diverged from the single node's", procs)
		}
	}
	assertPeersIdle(t, tc)
}
