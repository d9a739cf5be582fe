package cluster

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/binset"
	"repro/internal/core"
	"repro/internal/opq"
)

const testThreshold = 0.95

// localOPQ is the test stand-in for the service's local route: the plain
// OPQ solve in run form. Both the distributor under test and the
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

// untouchablePeer starts a listener that fails the test if anything
// reaches it.
func untouchablePeer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t.Errorf("peer contacted: %s %s", r.Method, r.URL.Path)
		http.Error(w, "peers are not dialled", http.StatusTeapot)
	}))
	t.Cleanup(srv.Close)
	return srv
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

func homogeneous(t *testing.T, n int) *core.Instance {
	t.Helper()
	in, err := core.NewHomogeneous(binset.Table1(), n, testThreshold)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestSelfURLNormalized(t *testing.T) {
	d := New(Config{Self: "http://a:8080/", Peers: []string{"http://a:8080", " http://b:8080/ ", "http://b:8080", ""}}, &localOPQ{})
	st := d.Stats()
	if st.Self != "http://a:8080" {
		t.Fatalf("self not normalized: %q", st.Self)
	}
	want := []PeerStats{{URL: "http://b:8080", State: "unused"}}
	if !reflect.DeepEqual(st.Peers, want) {
		t.Fatalf("peers %+v, want %+v (self must dedup against its own peer entry)", st.Peers, want)
	}
}

// TestDistributorLocalPaths: every instance shape goes to the local
// route, once, and a configured peer hears nothing of it.
func TestDistributorLocalPaths(t *testing.T) {
	local := &localOPQ{}
	d := New(Config{Self: "http://self.invalid", Peers: []string{untouchablePeer(t).URL}}, local)

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
	if _, err := d.SolveContext(context.Background(), homogeneous(t, 0)); err != nil {
		t.Fatal(err)
	}
	// Large enough that the fan-out used to cut it into a span per node.
	in := homogeneous(t, 5000)
	plan, err := d.SolveContext(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	parity(t, in, plan)
	if local.calls.Load() != 3 {
		t.Fatalf("local route calls: %d, want 3", local.calls.Load())
	}
	if _, err := d.SolveContext(context.Background(), nil); err == nil {
		t.Fatal("nil instance accepted")
	}
	if st := d.Stats(); st.SpansRemote != 0 || st.SpansLocal != 0 || st.Fallbacks != 0 {
		t.Fatalf("span counters moved: %+v", st)
	}
}

func TestDistributorNoPeersSolvesLocally(t *testing.T) {
	d := New(Config{}, &localOPQ{})
	in := homogeneous(t, 50)
	plan, err := d.SolveContext(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	parity(t, in, plan)
	if st := d.Stats(); st.Self != "local" || len(st.Peers) != 0 {
		t.Fatalf("peerless distributor: %+v", st)
	}
	if d.Name() == "" {
		t.Fatal("distributor has no name")
	}
	if _, err := d.Solve(in); err != nil {
		t.Fatalf("Solve: %v", err)
	}
}
