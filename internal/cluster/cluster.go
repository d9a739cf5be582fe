// Package cluster is what is left of the span fan-out: a peer list that is
// accepted, normalized and reported, and never dialled. Since a
// homogeneous solve became O(runs) on any node, cutting it into spans and
// shipping them as JSON cost more than solving it, so a peer-configured
// node answers every request from its own cache, through the same route a
// single node uses.
//
// Deprecated: the package exists for the wire names and config fields
// that benchmark/ and cmd/sladed still compile against; ROADMAP item 2(c)
// deletes it.
package cluster

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
)

// LocalSolver is the route a single node serves requests by — on a
// service, the batcher in front of the cached solver. It must be safe for
// concurrent use.
type LocalSolver interface {
	SolveContext(ctx context.Context, in *core.Instance) (*core.Plan, error)
}

// Config parameterizes a Distributor.
type Config struct {
	// Self is this node's own advertised base URL, or any stable name;
	// empty selects "local". It is reported, and dropped from Peers if it
	// appears there.
	Self string
	// Peers are the other nodes' base URLs. They are reported by Stats
	// and never contacted.
	Peers []string
}

// Distributor is the solver registered as "cluster" on a peer-configured
// service. It solves nothing itself: every instance goes to the local
// route, so a clustered answer is a single-node answer by construction.
// All methods are safe for concurrent use.
type Distributor struct {
	local LocalSolver
	self  string
	peers []string // normalized, deduplicated, sorted: the stats order
}

// New builds a Distributor over the configured peers. local is required;
// cfg.Peers may be empty.
func New(cfg Config, local LocalSolver) *Distributor {
	if local == nil {
		panic("cluster: New requires a local solver")
	}
	d := &Distributor{local: local, self: normalizeURL(cfg.Self)}
	if d.self == "" {
		d.self = "local"
	}
	seen := map[string]bool{"": true, d.self: true}
	for _, raw := range cfg.Peers {
		if u := normalizeURL(raw); !seen[u] {
			seen[u] = true
			d.peers = append(d.peers, u)
		}
	}
	sort.Strings(d.peers)
	return d
}

// normalizeURL makes "http://a:8080/" and " http://a:8080" one name, so a
// node that lists itself among its peers is not counted as its own peer.
func normalizeURL(raw string) string {
	return strings.TrimRight(strings.TrimSpace(raw), "/")
}

// Name implements core.Solver.
func (d *Distributor) Name() string { return "Cluster-OPQ" }

// Solve implements core.Solver. Safe for concurrent use.
func (d *Distributor) Solve(in *core.Instance) (*core.Plan, error) {
	return d.SolveContext(context.Background(), in)
}

// SolveContext solves the instance on this node, whatever its shape.
func (d *Distributor) SolveContext(ctx context.Context, in *core.Instance) (*core.Plan, error) {
	if in == nil {
		return nil, fmt.Errorf("cluster: nil instance")
	}
	return d.local.SolveContext(ctx, in)
}
