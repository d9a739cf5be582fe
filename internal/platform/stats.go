package platform

import "repro/internal/obs"

// Stats is the /v1/stats platform block.
type Stats struct {
	URL                 string             `json:"url"`
	State               string             `json:"state"` // "ok" | "open" | "probing"
	Attempts            uint64             `json:"attempts"`
	Retries             uint64             `json:"retries"`
	Failures            uint64             `json:"failures"`
	Replays             uint64             `json:"replays"`
	BreakerOpens        uint64             `json:"breaker_opens"`
	ConsecutiveFailures int                `json:"consecutive_failures"`
	DegradedRuns        uint64             `json:"degraded_runs"`
	LastError           string             `json:"last_error,omitempty"`
	Latency             obs.LatencySummary `json:"latency"`
}

// Stats snapshots the client's counters and breaker state.
func (c *Client) Stats() Stats {
	state, consecutive, lastErr := c.breaker.Snapshot()
	return Stats{
		URL:                 c.base,
		State:               state.String(),
		Attempts:            c.attempts.Value(),
		Retries:             c.retries.Value(),
		Failures:            c.failures.Value(),
		Replays:             c.replays.Value(),
		BreakerOpens:        c.breakerOpens.Value(),
		ConsecutiveFailures: consecutive,
		DegradedRuns:        c.degradedRuns.Value(),
		LastError:           lastErr,
		Latency:             c.latency.Snapshot().Summary(),
	}
}
