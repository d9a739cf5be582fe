package cluster

import "repro/internal/obs"

// PeerStats is one configured peer in the /v1/stats cluster block.
//
// Deprecated: only URL and State carry information (State is always
// "unused": configured, never contacted); the counters are zero and stay for the field names the
// ledger reads until ROADMAP item 1(c).
type PeerStats struct {
	URL                 string             `json:"url"`
	State               string             `json:"state"`
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
//
// Deprecated: the span counters are always zero — no span is cut — and
// stay for the field names the ledger reads until ROADMAP item 1(c).
type Stats struct {
	Self        string      `json:"self"`
	Peers       []PeerStats `json:"peers"`
	SpansRemote uint64      `json:"spans_remote"`
	SpansLocal  uint64      `json:"spans_local"`
	Fallbacks   uint64      `json:"fallbacks"`
}

// Stats reports this node's name and its configured peers, in sorted-URL
// order, each marked unused.
func (d *Distributor) Stats() Stats {
	s := Stats{Self: d.self, Peers: make([]PeerStats, 0, len(d.peers))}
	for _, u := range d.peers {
		s.Peers = append(s.Peers, PeerStats{URL: u, State: "unused"})
	}
	return s
}
