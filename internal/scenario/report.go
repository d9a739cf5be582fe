package scenario

import (
	"encoding/json"
	"fmt"
	"strings"
)

// ReportSchemaVersion identifies the BENCH_scenarios.json layout; bump it
// on any field change so downstream tooling can detect drift.
const ReportSchemaVersion = 1

// CellResult is one cell's reliability/cost/latency frontier record: the
// identity of the cell, what the plans promised, what the simulated crowd
// delivered, and what it cost. Every field except Timing is a pure
// function of the matrix seed.
type CellResult struct {
	// Cell is the axis-coordinate name; Arrival/Pool/Budget/Menu repeat
	// the coordinates individually for easy filtering.
	Cell    string `json:"cell"`
	Arrival string `json:"arrival"`
	Pool    string `json:"pool"`
	Budget  string `json:"budget"`
	Menu    string `json:"menu"`
	// Seed is the cell's derived seed (see the package seed rules).
	Seed int64 `json:"seed"`
	// Requests and Tasks scale the workload actually run.
	Requests int `json:"requests"`
	Tasks    int `json:"tasks"`

	// Reliability is the delivered no-false-negative rate: detected
	// ground-truth positives over all positives, across the whole cell.
	// TargetReliability is the cell's declared floor — the scenario-smoke
	// gate fails the cell below it.
	Positives         int     `json:"positives"`
	Detected          int     `json:"detected"`
	Reliability       float64 `json:"reliability"`
	TargetReliability float64 `json:"target_reliability"`
	// MeanPlannedThreshold is the mean per-request planned threshold —
	// in the capped regime, the reliability the budget could afford.
	MeanPlannedThreshold float64 `json:"mean_planned_threshold"`

	// Cost: what the plans cost on paper, what execution actually spent
	// (retries and top-ups included), and the per-task rate.
	PlannedCost  float64 `json:"planned_cost"`
	Spend        float64 `json:"spend"`
	SpendPerTask float64 `json:"spend_per_task"`

	// Execution shape: bins issued (with retries), deadline misses,
	// abandonments, and adaptive top-up rounds.
	BinsIssued    int `json:"bins_issued"`
	OvertimeBins  int `json:"overtime_bins"`
	AbandonedBins int `json:"abandoned_bins"`
	TopUpRounds   int `json:"top_up_rounds"`

	// Coverage: tasks whose delivered transformed mass met their demand,
	// the count that fell short, and the weakest delivered reliability.
	CoveredTasks            int     `json:"covered_tasks"`
	UncoveredTasks          int     `json:"uncovered_tasks"`
	MinDeliveredReliability float64 `json:"min_delivered_reliability"`

	// MakeSpanMS is the longest simulated single-bin duration (simulated
	// time — deterministic, unlike the Timing block).
	MakeSpanMS float64 `json:"makespan_ms"`

	// Timing carries wall-clock quantiles from the service's obs
	// histograms. Present only when Options.Timing is set, because wall-
	// clock is nondeterministic and would break the byte-identical
	// report guarantee.
	Timing *CellTiming `json:"timing,omitempty"`
}

// CellTiming is the wall-clock block of a cell result.
type CellTiming struct {
	// WallMS is the cell's end-to-end wall time (submit to last drain).
	WallMS float64 `json:"wall_ms"`
	// SolveP50/95/99MS summarize the service's decompose-path latency
	// histogram (batch accumulation included).
	SolveP50MS float64 `json:"solve_p50_ms"`
	SolveP95MS float64 `json:"solve_p95_ms"`
	SolveP99MS float64 `json:"solve_p99_ms"`
	// QueueWaitP95MS is the solve slots' queue-wait p95 — the admission-
	// control signal, observed under scenario load.
	QueueWaitP95MS float64 `json:"queue_wait_p95_ms"`
}

// Report is the whole matrix run — the payload of BENCH_scenarios.json.
type Report struct {
	SchemaVersion int    `json:"schema_version"`
	Matrix        string `json:"matrix"`
	Seed          int64  `json:"seed"`
	// Cells appear in matrix order.
	Cells []CellResult `json:"cells"`
}

// JSON renders the report deterministically (struct field order, no
// timestamps): same matrix seed, byte-identical output — the property the
// determinism regression test pins.
func (r *Report) JSON() ([]byte, error) {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// CheckTargets returns one error per cell whose delivered reliability
// fell below its declared floor — the scenario-smoke gate.
func (r *Report) CheckTargets() []error {
	var errs []error
	for _, c := range r.Cells {
		if c.Reliability < c.TargetReliability {
			errs = append(errs, fmt.Errorf("cell %s delivered reliability %.4f below its %.2f target",
				c.Cell, c.Reliability, c.TargetReliability))
		}
	}
	return errs
}

// FrontierTable renders the human-readable reliability/cost/latency
// frontier: one row per cell, aligned, with a '!' flag on cells below
// their declared target.
func (r *Report) FrontierTable() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Scenario frontier — matrix %q, seed %d, %d cells\n", r.Matrix, r.Seed, len(r.Cells))
	timing := false
	for _, c := range r.Cells {
		if c.Timing != nil {
			timing = true
			break
		}
	}
	fmt.Fprintf(&sb, "%-44s %6s %6s %6s %8s %7s %6s %6s %9s",
		"cell", "rel", "tgt", "plan_t", "$/task", "bins", "topup", "uncov", "mkspan_ms")
	if timing {
		fmt.Fprintf(&sb, " %9s %9s", "solve_p95", "queue_p95")
	}
	sb.WriteString("\n")
	for _, c := range r.Cells {
		flag := " "
		if c.Reliability < c.TargetReliability {
			flag = "!"
		}
		fmt.Fprintf(&sb, "%-43s%s %6.3f %6.2f %6.3f %8.4f %7d %6d %6d %9.1f",
			c.Cell, flag, c.Reliability, c.TargetReliability, c.MeanPlannedThreshold,
			c.SpendPerTask, c.BinsIssued, c.TopUpRounds, c.UncoveredTasks, c.MakeSpanMS)
		if timing {
			if c.Timing != nil {
				fmt.Fprintf(&sb, " %9.2f %9.2f", c.Timing.SolveP95MS, c.Timing.QueueWaitP95MS)
			} else {
				fmt.Fprintf(&sb, " %9s %9s", "-", "-")
			}
		}
		sb.WriteString("\n")
	}
	return sb.String()
}
