package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/opq"
	"repro/internal/resilience"
)

// DefaultFailureThreshold and DefaultCooldown are the per-peer breaker
// defaults. The breaker itself lives in internal/resilience (it is shared
// with the remote-platform client); these aliases keep the cluster's
// config surface self-describing.
const (
	DefaultFailureThreshold = resilience.DefaultFailureThreshold
	DefaultCooldown         = resilience.DefaultCooldown
)

// DefaultTimeout bounds one remote solve attempt when Config.Timeout is
// zero.
const DefaultTimeout = 10 * time.Second

// DefaultMinSpanBlocks is the minimum number of full OPQ1 blocks a span
// must hold to be worth shipping to a peer when Config.MinSpanBlocks is
// zero. It is set by what a remote span pays — JSON encode/decode and a
// network round trip — against a local solve that is O(runs) decisions
// over an identity id arena, whatever the span's length.
const DefaultMinSpanBlocks = 16

// maxRemoteBody bounds a decoded peer response (matches the API layer's
// request bound; a plan for a span we sent can never legitimately exceed
// it).
const maxRemoteBody = 64 << 20

// LocalSolver is the local fallback path — the service's cached solver
// (service.ShardedSolver). It must be safe for concurrent use.
type LocalSolver interface {
	SolveContext(ctx context.Context, in *core.Instance) (*core.Plan, error)
}

// BlockSizeFunc resolves the menu's optimal block size LCM₁ (the queue's
// first element), which span boundaries must align to. The service wires
// this to its OPQ cache.
type BlockSizeFunc func(bins core.BinSet, t float64) (int, error)

// Config parameterizes a Distributor.
type Config struct {
	// Self is this node's own ring identity — its advertised base URL, or
	// any stable name unique in the cluster. Empty selects "local", which
	// is fine as long as every node's config names the OTHER nodes by the
	// same URLs (the ring only compares names). Self never receives HTTP
	// traffic; spans it owns solve in-process.
	Self string
	// Peers are the other nodes' base URLs (e.g. "http://10.0.0.2:8080").
	Peers []string
	// Timeout bounds one remote solve attempt; <= 0 selects DefaultTimeout.
	Timeout time.Duration
	// Retries is how many times a failed span is re-sent to the same peer
	// before falling back to a local solve; 0 means one attempt, no
	// retries. Negative is treated as 0.
	Retries int
	// VirtualNodes is the ring points per member; <= 0 selects
	// DefaultVirtualNodes.
	VirtualNodes int
	// MinSpanBlocks is the minimum full blocks per distributed span; <= 0
	// selects DefaultMinSpanBlocks. Instances smaller than one span's
	// worth still route whole to their ring owner.
	MinSpanBlocks int
	// FailureThreshold consecutive failures open a peer's breaker; <= 0
	// selects DefaultFailureThreshold.
	FailureThreshold int
	// Cooldown is how long an open breaker shuts a peer out before a
	// probe; <= 0 selects DefaultCooldown.
	Cooldown time.Duration
	// Transport overrides the HTTP transport (fault injection in tests);
	// nil selects http.DefaultTransport.
	Transport http.RoundTripper
	// Registry receives the per-peer instruments; nil keeps metrics in a
	// private registry (still collected, just not exported anywhere).
	Registry *obs.Registry
	// Clock overrides time.Now for breaker cooldowns in tests.
	Clock func() time.Time
}

// peer is one remote node: its address, health gate, and instruments.
type peer struct {
	url     string
	breaker *resilience.Breaker

	requests  *obs.Counter // HTTP solve attempts sent
	failures  *obs.Counter // attempts that did not yield a valid plan
	retries   *obs.Counter // attempts after the first, per span
	fallbacks *obs.Counter // spans this peer lost to the local fallback
	latency   *obs.Histogram
}

// Distributor fans block-aligned spans of homogeneous instances out to
// peer nodes over POST /v1/decompose and merges the results via
// core.MergePlanRuns, in span order, so the merged plan is byte-identical
// to a single-node solve no matter which peers answered or in what order.
// Heterogeneous and empty instances solve locally. It implements
// core.Solver plus the service's context-aware extension; all methods are
// safe for concurrent use.
type Distributor struct {
	cfg       Config
	local     LocalSolver
	blockSize BlockSizeFunc
	ring      *Ring
	self      string
	peers     map[string]*peer
	order     []string // sorted peer URLs, the stats report order
	client    *http.Client

	breakerOpens *obs.Counter // cluster-wide open transitions

	spansRemote atomic.Uint64 // spans solved by a peer
	spansLocal  atomic.Uint64 // spans solved in-process (owned or fallback)
	fallbacks   atomic.Uint64 // spans that fell back after peer failure
}

// New builds a Distributor over the configured peers. local and blockSize
// are required; cfg.Peers may be empty (everything then solves locally,
// which keeps single-node configs and cluster configs on one code path).
func New(cfg Config, local LocalSolver, blockSize BlockSizeFunc) *Distributor {
	if local == nil || blockSize == nil {
		panic("cluster: New requires a local solver and a block-size source")
	}
	// Normalize Self exactly like the peer URLs below, or an advertised
	// "http://a:8080/" fails the dedup check against a peer entry
	// "http://a:8080" and the node joins the ring twice — once as itself,
	// once as an HTTP peer it ships spans to.
	cfg.Self = strings.TrimRight(strings.TrimSpace(cfg.Self), "/")
	if cfg.Self == "" {
		cfg.Self = "local"
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = DefaultTimeout
	}
	if cfg.Retries < 0 {
		cfg.Retries = 0
	}
	if cfg.MinSpanBlocks <= 0 {
		cfg.MinSpanBlocks = DefaultMinSpanBlocks
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	transport := cfg.Transport
	if transport == nil {
		transport = http.DefaultTransport
	}
	d := &Distributor{
		cfg:       cfg,
		local:     local,
		blockSize: blockSize,
		self:      cfg.Self,
		peers:     make(map[string]*peer, len(cfg.Peers)),
		// Per-attempt deadlines come from the request context; the client
		// itself never times out, so one slow attempt cannot leak past its
		// span.
		client: &http.Client{Transport: transport},
	}
	members := []string{cfg.Self}
	for _, raw := range cfg.Peers {
		u := strings.TrimRight(strings.TrimSpace(raw), "/")
		if u == "" || u == cfg.Self {
			continue
		}
		if _, dup := d.peers[u]; dup {
			continue
		}
		d.peers[u] = &peer{
			url:       u,
			breaker:   resilience.NewBreaker(cfg.FailureThreshold, cfg.Cooldown, cfg.Clock),
			requests:  reg.Counter("slade_cluster_peer_requests_total", "Remote span solves sent to the peer, including retries.", obs.L("peer", u)),
			failures:  reg.Counter("slade_cluster_peer_failures_total", "Remote span attempts that failed (transport, status, decode, or validation).", obs.L("peer", u)),
			retries:   reg.Counter("slade_cluster_peer_retries_total", "Remote span attempts beyond the first, per span.", obs.L("peer", u)),
			fallbacks: reg.Counter("slade_cluster_peer_fallbacks_total", "Spans routed to this peer that fell back to a local solve.", obs.L("peer", u)),
			latency:   reg.Histogram("slade_cluster_peer_latency_seconds", "Remote span solve round-trip latency, successful attempts.", obs.HistogramOpts{}, obs.L("peer", u)),
		}
		members = append(members, u)
	}
	d.order = make([]string, 0, len(d.peers))
	for u := range d.peers {
		d.order = append(d.order, u)
	}
	sort.Strings(d.order)
	d.ring = NewRing(members, cfg.VirtualNodes)
	d.breakerOpens = reg.Counter("slade_cluster_breaker_opens_total", "Peer circuit-breaker open transitions.")
	return d
}

// Name implements core.Solver.
func (d *Distributor) Name() string { return "Cluster-OPQ" }

// Solve implements core.Solver. Safe for concurrent use.
func (d *Distributor) Solve(in *core.Instance) (*core.Plan, error) {
	return d.SolveContext(context.Background(), in)
}

// SolveContext distributes the instance: homogeneous instances split into
// block-aligned spans fanned out across the ring (the menu digest's owner
// first), everything else solves locally. The returned plan is owned by
// the caller and byte-identical to what the local solver would have
// produced alone.
func (d *Distributor) SolveContext(ctx context.Context, in *core.Instance) (*core.Plan, error) {
	if in == nil {
		return nil, fmt.Errorf("cluster: nil instance")
	}
	// Heterogeneous instances partition per threshold class; distributing
	// them would need per-task threshold shipping. They stay on the local
	// path — the cluster's value is the homogeneous bulk traffic.
	if in.N() == 0 || !in.Homogeneous() || len(d.peers) == 0 {
		return d.local.SolveContext(ctx, in)
	}

	bins, threshold := in.Bins(), in.Threshold(0)
	blockSize, err := d.blockSize(bins, threshold)
	if err != nil {
		return nil, err
	}
	digest := opq.FingerprintDigest(bins, threshold)
	nodes := d.healthySequence(digest)
	// One span per healthy node at most, cut block-aligned — which is
	// what makes the merged plan's use sequence identical to an uncut
	// solve.
	spans := opq.CutSpans(in.N(), blockSize, len(nodes), d.cfg.MinSpanBlocks)
	if len(spans) == 1 && nodes[0] == d.self {
		// Whole instance, owned locally: skip the sub-instance round trip
		// entirely.
		d.spansLocal.Add(1)
		return d.local.SolveContext(ctx, in)
	}

	body, err := json.Marshal(remoteRequest{
		Bins:      bins.Bins(),
		Threshold: threshold,
		// Peers must solve with their LOCAL sharded path: routing the
		// request through their own distributor again could bounce spans
		// around the ring forever.
		Solver:      "sharded",
		IncludePlan: true,
	})
	if err != nil {
		return nil, err
	}

	plans := make([]*core.Plan, len(spans))
	errs := make([]error, len(spans))
	var wg sync.WaitGroup
	for i := range spans {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			plans[i], errs[i] = d.solveSpan(ctx, in, spans[i], nodes[i%len(nodes)], body)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	// Merge in span order: arrival order never reaches the plan, which is
	// what keeps clustered output deterministic under fault churn.
	return core.MergePlans(plans...), nil
}

// healthySequence returns the ring walk from the digest restricted to
// nodes currently accepting traffic. Self is always included (local solve
// cannot be circuit-broken), so the result is never empty. The check is
// deliberately non-mutating: the open→half-open probe admission happens
// in solveSpan at dispatch time, so a peer listed here but ultimately
// assigned no span never has a probe consumed on its behalf (which would
// latch the breaker half-open forever, since only a real attempt settles
// it).
func (d *Distributor) healthySequence(digest uint64) []string {
	seq := d.ring.Sequence(digest)
	out := seq[:0]
	for _, node := range seq {
		if node == d.self || d.peers[node].breaker.Healthy() {
			out = append(out, node)
		}
	}
	if len(out) == 0 {
		out = append(out, d.self)
	}
	return out
}

// solveSpan solves one span on its assigned node, falling back to a local
// solve after the peer's retry budget is spent. The returned plan is
// already offset into the global task space.
func (d *Distributor) solveSpan(ctx context.Context, in *core.Instance, sp opq.Span, node string, body []byte) (*core.Plan, error) {
	if node != d.self {
		p := d.peers[node]
		for attempt := 0; attempt <= d.cfg.Retries; attempt++ {
			if ctx.Err() != nil {
				// The caller hung up; that's not peer health, so it feeds
				// neither the breaker nor the fallback counters.
				return nil, ctx.Err()
			}
			// Consult the breaker per attempt, at dispatch time: this is
			// where an open breaker whose cooldown elapsed admits its single
			// probe (always settled, because a dispatch follows), and it
			// stops retries from hammering a peer whose breaker opened
			// mid-span — whether from this span's own failed probe or from
			// concurrent spans' failures.
			if !p.breaker.Allow() {
				break
			}
			if attempt > 0 {
				p.retries.Inc()
			}
			plan, err := d.solveRemote(ctx, p, in, sp, body)
			if err == nil {
				d.spansRemote.Add(1)
				return plan, nil
			}
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
		}
		p.fallbacks.Inc()
		d.fallbacks.Add(1)
	}
	d.spansLocal.Add(1)
	return d.solveLocalSpan(ctx, in, sp)
}

// solveLocalSpan solves the span in-process as a sub-instance and rebases
// it to the span's global offset.
func (d *Distributor) solveLocalSpan(ctx context.Context, in *core.Instance, sp opq.Span) (*core.Plan, error) {
	sub, err := core.NewHomogeneous(in.Bins(), sp.Len, in.Threshold(0))
	if err != nil {
		return nil, err
	}
	plan, err := d.local.SolveContext(ctx, sub)
	if err != nil {
		return nil, err
	}
	plan.OffsetTasks(sp.Base)
	return plan, nil
}

// remoteRequest is the POST /v1/decompose body a span ships as (n is
// filled per span from the shared prefix).
type remoteRequest struct {
	Bins        []core.TaskBin `json:"bins"`
	N           int            `json:"n,omitempty"`
	Threshold   float64        `json:"threshold"`
	Solver      string         `json:"solver"`
	IncludePlan bool           `json:"include_plan"`
}

// remoteResponse is the slice of the decompose reply the merge needs.
type remoteResponse struct {
	N    int           `json:"n"`
	Plan []core.BinUse `json:"plan"`
}

// solveRemote ships one span to the peer and decodes the reply back into
// a plan, offset to the span's global base. Every failure mode —
// transport, status, decode, and an invalid or infeasible plan — counts
// against the peer's breaker.
func (d *Distributor) solveRemote(ctx context.Context, p *peer, in *core.Instance, sp opq.Span, body []byte) (plan *core.Plan, err error) {
	p.requests.Inc()
	defer func() {
		// A canceled parent context is the caller's signal, not peer
		// health: release the probe slot (if this attempt held one) rather
		// than recording a failure the peer didn't cause. The per-attempt
		// timeout (attemptCtx expiring with the parent still live) IS peer
		// health and takes the record path.
		if err != nil && ctx.Err() != nil {
			p.breaker.Release()
			return
		}
		if p.breaker.Record(err) {
			d.breakerOpens.Inc()
		}
		if err != nil {
			p.failures.Inc()
		}
	}()

	// Patch the span's n into the shared request prefix. Cheaper than a
	// re-marshal per span and keeps the menu encoding identical across
	// spans.
	spanBody, err := patchN(body, sp.Len)
	if err != nil {
		return nil, err
	}
	attemptCtx, cancel := context.WithTimeout(ctx, d.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(attemptCtx, http.MethodPost, p.url+"/v1/decompose", bytes.NewReader(spanBody))
	if err != nil {
		return nil, fmt.Errorf("cluster: building request for %s: %w", p.url, err)
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("cluster: peer %s: %w", p.url, err)
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096)) //nolint:errcheck // drain for keep-alive reuse
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cluster: peer %s: status %d", p.url, resp.StatusCode)
	}
	var rr remoteResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxRemoteBody)).Decode(&rr); err != nil {
		return nil, fmt.Errorf("cluster: peer %s: decoding response: %w", p.url, err)
	}
	if rr.N != sp.Len {
		return nil, fmt.Errorf("cluster: peer %s: solved n=%d, span has %d", p.url, rr.N, sp.Len)
	}
	plan, err = core.PlanFromUses(rr.Plan)
	if err != nil {
		return nil, fmt.Errorf("cluster: peer %s: %w", p.url, err)
	}
	// Trust nothing off the wire: the span's plan must be a feasible
	// decomposition of the span sub-instance before it may merge into the
	// caller's plan.
	sub, err := core.NewHomogeneous(in.Bins(), sp.Len, in.Threshold(0))
	if err != nil {
		return nil, err
	}
	if err := plan.Validate(sub); err != nil {
		return nil, fmt.Errorf("cluster: peer %s: invalid plan: %w", p.url, err)
	}
	p.latency.ObserveSince(start)
	plan.OffsetTasks(sp.Base)
	return plan, nil
}

// patchN rewrites the "n" field of the shared request prefix. The prefix
// is marshaled without n (omitempty on zero), so the span's value is
// inserted after the opening brace.
func patchN(body []byte, n int) ([]byte, error) {
	if len(body) == 0 || body[0] != '{' {
		return nil, fmt.Errorf("cluster: malformed request prefix")
	}
	out := make([]byte, 0, len(body)+16)
	out = append(out, '{')
	out = append(out, fmt.Sprintf(`"n":%d,`, n)...)
	out = append(out, body[1:]...)
	return out, nil
}
