// Package testcluster boots N independent in-process sladed nodes, each a
// real service behind a real HTTP listener — the shape of a deployment of
// N nodes behind a balancer. It deliberately takes no *testing.T — the
// benchmark module reuses it (the cluster-fanout workload) from a plain
// binary.
//
// Deprecated: kept for the benchmark module; a node no longer knows its
// siblings, so one httptest.Server over service.NewHandler does the same.
package testcluster

import (
	"fmt"
	"io"
	"log"
	"net/http/httptest"

	"repro/internal/service"
)

// Options shapes a test cluster. The zero value is 3 nodes.
type Options struct {
	// Nodes is the node count; <= 0 selects 3.
	Nodes int
	// Seed seeded the shared fault injector.
	//
	// Deprecated: inert — no transport is left to inject faults into;
	// kept because benchmark/stack.go sets it.
	Seed int64
	// Configure, when non-nil, edits each node's assembled service config
	// last — the hook for batching, persistence, or logger overrides.
	Configure func(node int, cfg *service.Config)
}

// Node is one member: a real Service behind a real listener.
type Node struct {
	// URL is the node's base URL.
	URL     string
	Service *service.Service
	Server  *httptest.Server
}

// Cluster is a running set of nodes. Close it when done.
type Cluster struct {
	Nodes []*Node
}

// Start boots the nodes. The error is always nil.
func Start(opts Options) (*Cluster, error) {
	n := opts.Nodes
	if n <= 0 {
		n = 3
	}
	c := &Cluster{}
	for i := 0; i < n; i++ {
		cfg := service.Config{Logger: log.New(io.Discard, "", 0)}
		if opts.Configure != nil {
			opts.Configure(i, &cfg)
		}
		node := &Node{Service: service.New(cfg)}
		node.Server = httptest.NewServer(service.NewHandler(node.Service))
		node.URL = node.Server.URL
		c.Nodes = append(c.Nodes, node)
	}
	return c, nil
}

// Close shuts every node down: services first (draining background
// work), then the listeners.
func (c *Cluster) Close() {
	for _, node := range c.Nodes {
		node.Service.Close() //nolint:errcheck // always nil today
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
