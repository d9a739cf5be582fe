package service

import (
	"fmt"
	"log/slog"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/faultinject"
)

// TestAPIContractCluster pins the cluster-facing slice of the wire
// contract with its own golden script under testdata/contract/cluster:
// the /v1/stats cluster block and the peer-degraded /v1/healthz output.
// The service is configured with two fake peers that a seeded fault
// injector holds down for the whole script, so every value in the
// goldens — breaker states, failure counters, fallback counts, even the
// last_error strings — is synthetic and deterministic:
//
//   - step 1 fans one decompose out across both peers; every remote
//     attempt is refused, the per-peer retry budget (2) plus the first
//     attempt lands exactly on the breaker threshold (3), and both
//     breakers open while the request still succeeds via local fallback.
//   - step 2 repeats the decompose against the now-degraded cluster: both
//     breakers are open (cooldown is an hour, so no probe fires
//     mid-script) and the whole instance solves locally.
//   - steps 3 and 4 pin the resulting /v1/stats cluster block and the
//     degraded-but-200 /v1/healthz body.
//
// Regenerate with -update-contract, same as TestAPIContract.
func TestAPIContractCluster(t *testing.T) {
	peers := []string{"http://peer-a:7001", "http://peer-b:7002"}
	faults := faultinject.New(11, nil)
	for _, p := range peers {
		faults.Kill(p)
	}
	svc := New(Config{
		CacheSize:            8,
		Workers:              2,
		Slog:                 slog.New(slog.DiscardHandler),
		Peers:                peers,
		ClusterSelf:          "http://self:7000",
		ClusterTransport:     faults,
		ClusterTimeout:       time.Second,
		PeerRetries:          2,
		ClusterMinSpanBlocks: 1,
		ClusterCooldown:      time.Hour,
	})
	t.Cleanup(func() { svc.Close() })

	// n=12 at threshold 0.9 is 12 full blocks (L=1): enough to split one
	// span per node, so both peers see traffic on the first request.
	body := fmt.Sprintf(`{"bins":%s,"n":12,"threshold":0.9}`, table1JSON)
	steps := []contractStep{
		{name: "cluster_decompose_fallback", method: "POST", path: "/v1/decompose", body: body},
		{name: "cluster_decompose_degraded", method: "POST", path: "/v1/decompose", body: body},
		{name: "cluster_stats", method: "GET", path: "/v1/stats"},
		{name: "cluster_healthz", method: "GET", path: "/v1/healthz"},
	}
	runContractScript(t, svc, filepath.Join("testdata", "contract", "cluster"), steps)
}
