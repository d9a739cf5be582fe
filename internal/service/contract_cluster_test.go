package service

import (
	"fmt"
	"log/slog"
	"net/http"
	"path/filepath"
	"testing"
)

// failingTransport is a peer transport that must never be used.
type failingTransport struct{ t *testing.T }

func (f failingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	f.t.Errorf("peer dialled: %s %s", req.Method, req.URL)
	return nil, fmt.Errorf("peers are not dialled")
}

// TestAPIContractCluster pins the cluster-facing slice of the wire
// contract with its own golden script under testdata/contract/cluster:
// what a service configured with two peers — which it never dials —
// answers to an unnamed decompose (reported under "cluster"), a decompose
// naming "cluster", and in the cluster blocks of /v1/stats and
// /v1/healthz: the peers listed as "unused", every counter zero.
//
// Regenerate with -update-contract, same as TestAPIContract.
func TestAPIContractCluster(t *testing.T) {
	svc := New(Config{
		CacheSize:        8,
		Workers:          2,
		Slog:             slog.New(slog.DiscardHandler),
		Peers:            []string{"http://peer-b:7002", "http://peer-a:7001/"},
		ClusterSelf:      "http://self:7000",
		ClusterTransport: failingTransport{t},
	})
	t.Cleanup(func() { svc.Close() })

	body := fmt.Sprintf(`{"bins":%s,"n":12,"threshold":0.9`, table1JSON)
	steps := []contractStep{
		{name: "cluster_decompose_default", method: "POST", path: "/v1/decompose", body: body + "}"},
		{name: "cluster_decompose_named", method: "POST", path: "/v1/decompose", body: body + `,"solver":"cluster"}`},
		{name: "cluster_stats", method: "GET", path: "/v1/stats"},
		{name: "cluster_healthz", method: "GET", path: "/v1/healthz"},
	}
	runContractScript(t, svc, filepath.Join("testdata", "contract", "cluster"), steps)
}
