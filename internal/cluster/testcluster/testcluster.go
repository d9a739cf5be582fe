// Package testcluster boots an in-process multi-node sladed cluster: N
// real services behind real HTTP listeners, each configured with the
// others as peers. Peers are never dialled, so the nodes are independent;
// what the package pins is that a peer list changes no answer. It
// deliberately takes no *testing.T — the benchmark module reuses it (the
// cluster-fanout workload) from a plain binary.
//
// Deprecated: goes with service.Config.Peers (ROADMAP item 2(c)).
package testcluster

import (
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"sync/atomic"

	"repro/internal/service"
)

// Options shapes a test cluster. The zero value is a 3-node cluster.
type Options struct {
	// Nodes is the cluster size; <= 0 selects 3.
	Nodes int
	// Seed seeded the shared fault injector.
	//
	// Deprecated: inert — no transport is left to inject faults into;
	// kept because benchmark/stack.go sets it.
	Seed int64
	// Workers is each node's solve-slot count; <= 0 selects the CPU count.
	Workers int
	// Configure, when non-nil, edits each node's assembled service config
	// last — the hook for batching, persistence, or logger overrides.
	Configure func(node int, cfg *service.Config)
}

// Node is one cluster member: a real Service behind a real listener.
type Node struct {
	// URL is the node's base URL, the name its peers list it by.
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
}

// Start boots the cluster: listeners first (so every node knows every
// URL), then the services, each configured with the other nodes as peers.
func Start(opts Options) (*Cluster, error) {
	n := opts.Nodes
	if n <= 0 {
		n = 3
	}
	c := &Cluster{}
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
			Workers:     opts.Workers,
			Peers:       peers,
			ClusterSelf: node.URL,
			Logger:      log.New(discard{}, "", 0),
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
