package cluster

import "repro/internal/obs"

// PeerStats is one peer's health and traffic counters as reported in the
// /v1/stats cluster block.
type PeerStats struct {
	URL                 string             `json:"url"`
	State               string             `json:"state"` // "ok" | "open" | "probing"
	Requests            uint64             `json:"requests"`
	Failures            uint64             `json:"failures"`
	Retries             uint64             `json:"retries"`
	Fallbacks           uint64             `json:"fallbacks"`
	BreakerOpens        uint64             `json:"breaker_opens"`
	ConsecutiveFailures int                `json:"consecutive_failures"`
	LastError           string             `json:"last_error,omitempty"`
	Latency             obs.LatencySummary `json:"latency"`
}

// Stats is the /v1/stats cluster block.
type Stats struct {
	Self        string      `json:"self"`
	Peers       []PeerStats `json:"peers"`
	SpansRemote uint64      `json:"spans_remote"`
	SpansLocal  uint64      `json:"spans_local"`
	Fallbacks   uint64      `json:"fallbacks"`
}

// Stats snapshots the distributor's per-peer counters and breaker states.
// Peers report in sorted-URL order so the output is stable for contract
// replay.
func (d *Distributor) Stats() Stats {
	s := Stats{
		Self:        d.self,
		Peers:       make([]PeerStats, 0, len(d.order)),
		SpansRemote: d.spansRemote.Load(),
		SpansLocal:  d.spansLocal.Load(),
		Fallbacks:   d.fallbacks.Load(),
	}
	for _, u := range d.order {
		p := d.peers[u]
		state, consecutive, opens, lastErr := p.breaker.Snapshot()
		s.Peers = append(s.Peers, PeerStats{
			URL:                 u,
			State:               state,
			Requests:            p.requests.Value(),
			Failures:            p.failures.Value(),
			Retries:             p.retries.Value(),
			Fallbacks:           p.fallbacks.Value(),
			BreakerOpens:        opens,
			ConsecutiveFailures: consecutive,
			LastError:           lastErr,
			Latency:             p.latency.Snapshot().Summary(),
		})
	}
	return s
}

// Degraded reports whether any peer's breaker is currently not "ok" —
// the signal /v1/healthz uses to flip the cluster block to degraded
// without failing the health check (the fallback keeps serving).
func (d *Distributor) Degraded() bool {
	for _, p := range d.peers {
		if state, _, _, _ := p.breaker.Snapshot(); state != "ok" {
			return true
		}
	}
	return false
}

// PeerCount returns the number of configured remote peers.
func (d *Distributor) PeerCount() int { return len(d.peers) }
