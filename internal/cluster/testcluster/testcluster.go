// Package testcluster boots an in-process multi-node sladed cluster for
// chaos and parity testing: N real services behind real HTTP listeners,
// fully peer-meshed through one shared fault-injecting transport. It
// deliberately takes no *testing.T — the benchmark module reuses it to
// measure clustered solves (the cluster-fanout workload) from a plain
// binary.
package testcluster

import (
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
	"repro/internal/service"
)

// Options shapes a test cluster. The zero value is a 3-node cluster with
// test-friendly tuning: tiny spans so small instances still distribute, a
// short attempt timeout, and a short breaker cooldown.
type Options struct {
	// Nodes is the cluster size; <= 0 selects 3.
	Nodes int
	// Seed seeds the shared fault injector; the same seed and request
	// order replay the same fault schedule.
	Seed int64
	// MinSpanBlocks per distributed span; <= 0 selects 1 (distribute
	// everything — tests want traffic on the wire, not realism).
	MinSpanBlocks int
	// Timeout bounds one remote attempt; <= 0 selects 2s.
	Timeout time.Duration
	// Retries per span before local fallback; < 0 selects 0.
	Retries int
	// FailureThreshold consecutive failures open a peer breaker; <= 0
	// selects the cluster default (3).
	FailureThreshold int
	// Cooldown before an open breaker probes; <= 0 selects 100ms.
	Cooldown time.Duration
	// Workers is each node's solve-slot count; <= 0 selects the CPU count.
	Workers int
	// Configure, when non-nil, edits each node's assembled service config
	// last — the hook for batching, persistence, or logger overrides.
	Configure func(node int, cfg *service.Config)
}

// Node is one cluster member: a real Service behind a real listener.
type Node struct {
	// URL is the node's base URL — its identity on every ring.
	URL     string
	Service *service.Service
	Server  *httptest.Server

	// handler is bound after the Service exists; the listener must be up
	// first so peers' URLs are known at construction time.
	handler atomic.Pointer[http.Handler]
}

// Cluster is a running test cluster. Close it when done.
type Cluster struct {
	Nodes []*Node
	// Faults is the shared outbound transport of every node: killing a
	// peer here makes it unreachable from all of them at once. The peer's
	// own listener stays up — a "killed" peer can still be revived.
	Faults *faultinject.Injector
}

// Start boots the cluster: listeners first (so every node knows every
// URL), then the services, each configured with the other nodes as peers
// and the shared fault injector as transport.
func Start(opts Options) (*Cluster, error) {
	n := opts.Nodes
	if n <= 0 {
		n = 3
	}
	minSpan := opts.MinSpanBlocks
	if minSpan <= 0 {
		minSpan = 1
	}
	timeout := opts.Timeout
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	retries := opts.Retries
	if retries < 0 {
		retries = 0
	}
	cooldown := opts.Cooldown
	if cooldown <= 0 {
		cooldown = 100 * time.Millisecond
	}

	c := &Cluster{Faults: faultinject.New(opts.Seed, nil)}
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		node := &Node{}
		node.Server = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			h := node.handler.Load()
			if h == nil {
				http.Error(w, "node still booting", http.StatusServiceUnavailable)
				return
			}
			(*h).ServeHTTP(w, r)
		}))
		node.URL = node.Server.URL
		urls[i] = node.URL
		c.Nodes = append(c.Nodes, node)
	}

	for i, node := range c.Nodes {
		peers := make([]string, 0, n-1)
		for j, u := range urls {
			if j != i {
				peers = append(peers, u)
			}
		}
		cfg := service.Config{
			Workers:                 opts.Workers,
			Peers:                   peers,
			ClusterSelf:             node.URL,
			ClusterTimeout:          timeout,
			PeerRetries:             retries,
			ClusterTransport:        c.Faults,
			ClusterMinSpanBlocks:    minSpan,
			ClusterFailureThreshold: opts.FailureThreshold,
			ClusterCooldown:         cooldown,
			Logger:                  log.New(discard{}, "", 0),
		}
		if opts.Configure != nil {
			opts.Configure(i, &cfg)
		}
		node.Service = service.New(cfg)
		h := service.NewHandler(node.Service)
		node.handler.Store(&h)
	}
	return c, nil
}

// Close shuts every node down: services first (draining background
// work), then the listeners.
func (c *Cluster) Close() {
	for _, node := range c.Nodes {
		if node.Service != nil {
			node.Service.Close() //nolint:errcheck // always nil today
		}
	}
	for _, node := range c.Nodes {
		node.Server.Close()
	}
}

// Node returns member i, panicking on a bad index so tests fail loudly.
func (c *Cluster) Node(i int) *Node {
	if i < 0 || i >= len(c.Nodes) {
		panic(fmt.Sprintf("testcluster: node %d of %d", i, len(c.Nodes)))
	}
	return c.Nodes[i]
}

// discard silences the per-node service logger without importing io just
// for io.Discard behind a *log.Logger.
type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
