package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/binset"
	"repro/internal/core"
	"repro/internal/opq"
)

const testThreshold = 0.95

// fakeClock is a hand-advanced clock for breaker cooldown tests. (The
// breaker's own suite moved to internal/resilience with the breaker; this
// copy serves the cluster-level cooldown scenarios.)
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1000, 0)} }

// localOPQ is the test stand-in for the service's sharded solver: the
// plain OPQ solve in run form. Both the distributor under test and the
// single-node reference use it, so any parity break is the distributor's.
type localOPQ struct{ calls atomic.Int64 }

func (l *localOPQ) SolveContext(_ context.Context, in *core.Instance) (*core.Plan, error) {
	l.calls.Add(1)
	if in.N() == 0 {
		return &core.Plan{}, nil
	}
	q, err := opq.Build(in.Bins(), in.Threshold(0))
	if err != nil {
		return nil, err
	}
	pr, err := opq.SolveRunsRange(q, 0, in.N())
	if err != nil {
		return nil, err
	}
	return core.NewRunPlan(pr), nil
}

func testBlockSize(bins core.BinSet, t float64) (int, error) {
	q, err := opq.Build(bins, t)
	if err != nil {
		return 0, err
	}
	return int(q.Elems[0].LCM), nil
}

func mustBlockSize(t *testing.T) int {
	t.Helper()
	l, err := testBlockSize(binset.Table1(), testThreshold)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// peerWire mirrors the distributor's remote request for test decoding.
type peerWire struct {
	Bins        []core.TaskBin `json:"bins"`
	N           int            `json:"n"`
	Threshold   float64        `json:"threshold"`
	Solver      string         `json:"solver"`
	IncludePlan bool           `json:"include_plan"`
}

// newPeer starts a minimal decompose peer: decode, solve with OPQ, reply
// {n, plan}. intercept (optional) runs first and may write its own
// response, returning true to skip the solve.
func newPeer(t *testing.T, intercept func(w http.ResponseWriter, req peerWire, attempt int) bool) *httptest.Server {
	t.Helper()
	var attempts atomic.Int64
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req peerWire
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Errorf("peer: bad request body: %v", err)
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if req.Solver != "sharded" {
			t.Errorf("peer: got solver %q, want pinned \"sharded\" (anti-loop)", req.Solver)
		}
		if r.URL.Path != "/v1/decompose" {
			t.Errorf("peer: got path %q", r.URL.Path)
		}
		n := int(attempts.Add(1))
		if intercept != nil && intercept(w, req, n) {
			return
		}
		bins, err := core.NewBinSet(req.Bins)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		in, err := core.NewHomogeneous(bins, req.N, req.Threshold)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		plan, err := (&localOPQ{}).SolveContext(r.Context(), in)
		if err != nil {
			http.Error(w, err.Error(), http.StatusUnprocessableEntity)
			return
		}
		_ = json.NewEncoder(w).Encode(map[string]any{"n": req.N, "plan": plan.Materialized()})
	}))
}

// parity asserts the clustered plan matches the single-node reference
// byte for byte: same materialized use sequence, bit-identical cost.
func parity(t *testing.T, in *core.Instance, got *core.Plan) {
	t.Helper()
	want, err := (&localOPQ{}).SolveContext(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(in); err != nil {
		t.Fatalf("clustered plan invalid: %v", err)
	}
	gu, wu := got.Materialized(), want.Materialized()
	if !reflect.DeepEqual(gu, wu) {
		t.Fatalf("clustered use sequence diverges: %d uses vs %d", len(gu), len(wu))
	}
	gs, err := got.Summarize(in.Bins())
	if err != nil {
		t.Fatal(err)
	}
	ws, err := want.Summarize(in.Bins())
	if err != nil {
		t.Fatal(err)
	}
	if gs.Cost != ws.Cost {
		t.Fatalf("cost diverges: clustered %v, single-node %v", gs.Cost, ws.Cost)
	}
}

func newTestDistributor(t *testing.T, peers []string, mut func(*Config)) (*Distributor, *localOPQ) {
	t.Helper()
	local := &localOPQ{}
	cfg := Config{
		Self:          "http://self.invalid",
		Peers:         peers,
		Timeout:       5 * time.Second,
		MinSpanBlocks: 1,
	}
	if mut != nil {
		mut(&cfg)
	}
	return New(cfg, local, testBlockSize), local
}

func homogeneous(t *testing.T, n int) *core.Instance {
	t.Helper()
	in, err := core.NewHomogeneous(binset.Table1(), n, testThreshold)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestDistributorParityAllPeersHealthy(t *testing.T) {
	p1 := newPeer(t, nil)
	defer p1.Close()
	p2 := newPeer(t, nil)
	defer p2.Close()
	d, _ := newTestDistributor(t, []string{p1.URL, p2.URL}, nil)

	L := mustBlockSize(t)
	for _, n := range []int{L * 12, L*9 + 3, L - 1, 1} {
		in := homogeneous(t, n)
		plan, err := d.SolveContext(context.Background(), in)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		parity(t, in, plan)
	}
	st := d.Stats()
	if st.SpansRemote == 0 {
		t.Fatalf("no spans went remote: %+v", st)
	}
	if st.Fallbacks != 0 {
		t.Fatalf("healthy peers produced %d fallbacks", st.Fallbacks)
	}
}

func TestDistributorFallbackOnDeadPeer(t *testing.T) {
	p1 := newPeer(t, nil)
	defer p1.Close()
	// An address nothing listens on: every attempt is a transport error.
	dead := "http://127.0.0.1:1"
	d, _ := newTestDistributor(t, []string{p1.URL, dead}, func(c *Config) {
		c.Retries = 1
		c.FailureThreshold = 2
		c.Timeout = time.Second
	})

	L := mustBlockSize(t)
	in := homogeneous(t, L*12)
	for i := 0; i < 3; i++ {
		plan, err := d.SolveContext(context.Background(), in)
		if err != nil {
			t.Fatalf("solve %d: %v", i, err)
		}
		parity(t, in, plan)
	}
	st := d.Stats()
	var deadStats *PeerStats
	for i := range st.Peers {
		if st.Peers[i].URL == dead {
			deadStats = &st.Peers[i]
		}
	}
	if deadStats == nil {
		t.Fatalf("dead peer missing from stats: %+v", st)
	}
	if deadStats.Fallbacks == 0 {
		t.Fatalf("dead peer absorbed no fallbacks: %+v", *deadStats)
	}
	if deadStats.State != "open" {
		t.Fatalf("dead peer breaker state %q, want open", deadStats.State)
	}
	if deadStats.LastError == "" || deadStats.BreakerOpens == 0 {
		t.Fatalf("dead peer stats incomplete: %+v", *deadStats)
	}
	if !d.Degraded() {
		t.Fatal("Degraded() false with an open breaker")
	}
}

func TestDistributorRetryThenSuccess(t *testing.T) {
	p := newPeer(t, func(w http.ResponseWriter, _ peerWire, attempt int) bool {
		if attempt == 1 {
			http.Error(w, "transient", http.StatusInternalServerError)
			return true
		}
		return false
	})
	defer p.Close()
	d, _ := newTestDistributor(t, []string{p.URL}, func(c *Config) { c.Retries = 2 })

	L := mustBlockSize(t)
	in := homogeneous(t, L*4)
	plan, err := d.SolveContext(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	parity(t, in, plan)
	st := d.Stats()
	if st.Peers[0].Retries == 0 || st.Peers[0].Failures == 0 {
		t.Fatalf("retry path not exercised: %+v", st.Peers[0])
	}
	if st.Fallbacks != 0 {
		t.Fatalf("retry success still fell back: %+v", st)
	}
}

func TestDistributorRejectsCorruptRemotePlan(t *testing.T) {
	cases := map[string]func(w http.ResponseWriter, req peerWire){
		"wrong n": func(w http.ResponseWriter, req peerWire) {
			_ = json.NewEncoder(w).Encode(map[string]any{"n": req.N + 1, "plan": []core.BinUse{}})
		},
		"invalid plan": func(w http.ResponseWriter, req peerWire) {
			// Feasibly shaped JSON, but the use list doesn't cover the tasks.
			_ = json.NewEncoder(w).Encode(map[string]any{"n": req.N, "plan": []core.BinUse{
				{Cardinality: 1, Tasks: []int{0}},
			}})
		},
		"truncated body": func(w http.ResponseWriter, req peerWire) {
			w.Write([]byte(`{"n":`)) //nolint:errcheck
		},
	}
	L := mustBlockSize(t)
	for name, corrupt := range cases {
		t.Run(name, func(t *testing.T) {
			p := newPeer(t, func(w http.ResponseWriter, req peerWire, _ int) bool {
				corrupt(w, req)
				return true
			})
			defer p.Close()
			d, _ := newTestDistributor(t, []string{p.URL}, nil)
			in := homogeneous(t, L*4)
			plan, err := d.SolveContext(context.Background(), in)
			if err != nil {
				t.Fatal(err)
			}
			parity(t, in, plan)
			if st := d.Stats(); st.Fallbacks == 0 || st.Peers[0].Failures == 0 {
				t.Fatalf("corrupt response not counted: %+v", st)
			}
		})
	}
}

// TestSmallRequestDoesNotLatchCooledPeer is the regression pin for the
// half-open latch-up: routing a request that ships the peer zero spans
// (here, the whole-instance local fast path) must not consume the
// cooled-down breaker's probe admission, or the probe never settles and
// the peer is excluded until restart.
func TestSmallRequestDoesNotLatchCooledPeer(t *testing.T) {
	dead := "http://127.0.0.1:1"
	digest := opq.FingerprintDigest(binset.Table1(), testThreshold)
	// Pick a self identity that owns the menu digest, so a single-span
	// request takes the whole-instance local fast path and the dead peer
	// is routed nothing.
	self := ""
	for i := 0; i < 1000 && self == ""; i++ {
		cand := fmt.Sprintf("http://self-%d.invalid", i)
		if NewRing([]string{cand, dead}, 0).Sequence(digest)[0] == cand {
			self = cand
		}
	}
	if self == "" {
		t.Fatal("no candidate self owns the digest")
	}
	clk := newFakeClock()
	d, _ := newTestDistributor(t, []string{dead}, func(c *Config) {
		c.Self = self
		c.FailureThreshold = 1
		c.Cooldown = time.Second
		c.Timeout = time.Second
		c.Clock = clk.now
	})

	// Open the dead peer's breaker with a fan-out wide enough to route it
	// a span.
	L := mustBlockSize(t)
	big := homogeneous(t, L*8)
	if _, err := d.SolveContext(context.Background(), big); err != nil {
		t.Fatal(err)
	}
	if st := d.Stats(); st.Peers[0].State != "open" {
		t.Fatalf("dead peer breaker %q, want open", st.Peers[0].State)
	}

	// Cooldown elapses; span-less traffic must leave the probe unconsumed.
	clk.advance(2 * time.Second)
	small := homogeneous(t, 1)
	for i := 0; i < 3; i++ {
		if _, err := d.SolveContext(context.Background(), small); err != nil {
			t.Fatal(err)
		}
	}
	st := d.Stats()
	if st.Peers[0].State == "probing" {
		t.Fatal("span-less request latched the peer half-open")
	}
	// The next real fan-out must still probe the peer.
	before := st.Peers[0].Requests
	if _, err := d.SolveContext(context.Background(), big); err != nil {
		t.Fatal(err)
	}
	if after := d.Stats().Peers[0].Requests; after == before {
		t.Fatal("cooled-down peer was never re-probed")
	}
}

// TestRetryLoopRespectsBreakerOpen pins that a span's retry budget stops
// as soon as the peer's breaker opens: the half-open probe is a single
// attempt, not Retries+1 of them.
func TestRetryLoopRespectsBreakerOpen(t *testing.T) {
	p := newPeer(t, func(w http.ResponseWriter, _ peerWire, _ int) bool {
		http.Error(w, "boom", http.StatusInternalServerError)
		return true
	})
	defer p.Close()
	d, _ := newTestDistributor(t, []string{p.URL}, func(c *Config) {
		c.Retries = 3
		c.FailureThreshold = 1
	})
	in := homogeneous(t, mustBlockSize(t)*4)
	plan, err := d.SolveContext(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	parity(t, in, plan)
	st := d.Stats()
	if st.Peers[0].Requests != 1 {
		t.Fatalf("peer got %d attempts; its breaker opened after 1 and retries must stop", st.Peers[0].Requests)
	}
	if st.Peers[0].Fallbacks != 1 {
		t.Fatalf("fallbacks = %d, want 1", st.Peers[0].Fallbacks)
	}
}

func TestCanceledContextNotChargedToPeer(t *testing.T) {
	p := newPeer(t, nil)
	defer p.Close()
	d, _ := newTestDistributor(t, []string{p.URL}, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	in := homogeneous(t, mustBlockSize(t)*4)
	if _, err := d.SolveContext(ctx, in); err == nil {
		t.Fatal("canceled solve succeeded")
	}
	st := d.Stats()
	if st.Fallbacks != 0 || st.Peers[0].Fallbacks != 0 {
		t.Fatalf("cancellation counted as peer fallback: %+v", st)
	}
	if st.Peers[0].State != "ok" || st.Peers[0].Failures != 0 {
		t.Fatalf("cancellation charged to peer health: %+v", st.Peers[0])
	}
}

func TestSelfURLNormalized(t *testing.T) {
	d, _ := newTestDistributor(t, []string{"http://a:8080", " http://b:8080/ "}, func(c *Config) {
		c.Self = "http://a:8080/"
	})
	if d.self != "http://a:8080" {
		t.Fatalf("self not normalized: %q", d.self)
	}
	if d.PeerCount() != 1 {
		t.Fatalf("peer count %d, want 1 (self must dedup against its own peer entry)", d.PeerCount())
	}
	if _, ok := d.peers["http://b:8080"]; !ok {
		t.Fatalf("peer b missing or unnormalized: %v", d.order)
	}
}

func TestDistributorLocalPaths(t *testing.T) {
	p := newPeer(t, func(http.ResponseWriter, peerWire, int) bool {
		t.Error("peer contacted for a local-only shape")
		return false
	})
	defer p.Close()
	d, local := newTestDistributor(t, []string{p.URL}, nil)

	// Heterogeneous: local passthrough.
	ts := make([]float64, 30)
	for i := range ts {
		ts[i] = 0.9 + 0.002*float64(i%5)
	}
	hin, err := core.NewHeterogeneous(binset.Table1(), ts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.SolveContext(context.Background(), hin); err != nil {
		t.Fatal(err)
	}
	// Empty: local passthrough.
	ein := homogeneous(t, 0)
	if _, err := d.SolveContext(context.Background(), ein); err != nil {
		t.Fatal(err)
	}
	if local.calls.Load() != 2 {
		t.Fatalf("local passthrough calls: %d, want 2", local.calls.Load())
	}
	// Nil: error.
	if _, err := d.SolveContext(context.Background(), nil); err == nil {
		t.Fatal("nil instance accepted")
	}
}

func TestDistributorNoPeersSolvesLocally(t *testing.T) {
	local := &localOPQ{}
	d := New(Config{}, local, testBlockSize)
	in := homogeneous(t, 50)
	plan, err := d.SolveContext(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	parity(t, in, plan)
	if d.PeerCount() != 0 || d.Degraded() {
		t.Fatalf("peerless distributor: count=%d degraded=%v", d.PeerCount(), d.Degraded())
	}
	if d.Name() == "" {
		t.Fatal("distributor has no name")
	}
	if _, err := d.Solve(in); err != nil {
		t.Fatalf("Solve: %v", err)
	}
}

func TestPatchN(t *testing.T) {
	body, err := patchN([]byte(`{"bins":[],"threshold":0.9}`), 42)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		N         int     `json:"n"`
		Threshold float64 `json:"threshold"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("patched body unparseable: %v (%s)", err, body)
	}
	if got.N != 42 || got.Threshold != 0.9 {
		t.Fatalf("patched body: %+v", got)
	}
	if _, err := patchN([]byte(`[]`), 1); err == nil {
		t.Fatal("non-object prefix accepted")
	}
}
