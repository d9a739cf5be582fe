// Package analysis computes diagnostic statistics of decomposition plans:
// how a plan spends its budget, how much reliability slack it buys beyond
// the thresholds, how evenly assignments spread over tasks, and how far the
// cost sits above the fractional lower bound. The sladecli `analyze`
// subcommand prints these for operators deciding between algorithms.
package analysis

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/core"
)

// Stats summarizes one plan against its instance; the embedded Summary
// carries the plan's use vector, totals and cost.
type Stats struct {
	core.Summary
	// N is the instance's task count.
	N int
	// LPLowerBound is the fractional covering bound; Cost/LPLowerBound
	// measures how much the integrality and the algorithm leave on the
	// table.
	LPLowerBound float64
	// CostByCardinality splits Cost per bin size.
	CostByCardinality map[int]float64
	// FillRate is the fraction of paid bin slots actually holding a task
	// (partially filled bins waste the difference).
	FillRate float64
	// AssignmentsPerTask is the distribution of how many bins each task
	// appears in.
	AssignmentsPerTask Distribution
	// Slack is the distribution of delivered-minus-required transformed
	// reliability mass per task; Min < 0 means an infeasible plan.
	Slack Distribution
	// OverProvisionCost estimates the cost of reliability bought beyond
	// the thresholds: total slack mass valued at the plan's average cost
	// per unit of delivered mass.
	OverProvisionCost float64
}

// Distribution is a compact summary of a per-task quantity.
type Distribution struct {
	Min, Max, Mean float64
}

// summarize folds a slice into a Distribution.
func summarize(vals []float64) Distribution {
	if len(vals) == 0 {
		return Distribution{}
	}
	d := Distribution{Min: vals[0], Max: vals[0]}
	sum := 0.0
	for _, v := range vals {
		if v < d.Min {
			d.Min = v
		}
		if v > d.Max {
			d.Max = v
		}
		sum += v
	}
	d.Mean = sum / float64(len(vals))
	return d
}

// Analyze computes the Stats of a plan for an instance. The plan need not
// be feasible; infeasibility shows up as negative slack.
func Analyze(in *core.Instance, plan *core.Plan) (*Stats, error) {
	sum, err := plan.Summarize(in.Bins())
	if err != nil {
		return nil, err
	}
	s := &Stats{
		Summary:           sum,
		N:                 in.N(),
		CostByCardinality: make(map[int]float64, len(sum.Uses)),
		LPLowerBound:      core.LowerBoundLP(in),
	}
	slots := 0
	for _, u := range sum.Uses {
		b, _ := in.Bins().ByCardinality(u.Cardinality) // Summarize priced every row
		s.CostByCardinality[u.Cardinality] = float64(u.Count) * b.Cost
		slots += u.Count * u.Cardinality
	}
	if slots > 0 {
		s.FillRate = float64(s.NumAssignments) / float64(slots)
	}

	mass, err := plan.TransformedMass(in.N(), in.Bins())
	if err != nil {
		return nil, err
	}
	perTask := make([]float64, in.N())
	slack := make([]float64, in.N())
	counts := make([]float64, in.N())
	totalMass, totalSlack := 0.0, 0.0
	_ = plan.EachUse(func(_ int, tasks []int) error {
		for _, t := range tasks {
			counts[t]++
		}
		return nil
	})
	for i := 0; i < in.N(); i++ {
		perTask[i] = counts[i]
		slack[i] = mass[i] - in.Theta(i)
		totalMass += mass[i]
		if slack[i] > 0 {
			totalSlack += slack[i]
		}
	}
	s.AssignmentsPerTask = summarize(perTask)
	s.Slack = summarize(slack)
	if totalMass > 0 {
		s.OverProvisionCost = s.Cost * totalSlack / totalMass
	}
	return s, nil
}

// String renders the stats as an operator-facing report. Its value
// receiver keeps the promoted Summary.String from answering for a Stats
// value.
func (s Stats) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "tasks:              %d\n", s.N)
	fmt.Fprintf(&sb, "cost:               $%.4f", s.Cost)
	if s.LPLowerBound > 0 {
		fmt.Fprintf(&sb, "  (%.2f× LP bound $%.4f)", s.Cost/s.LPLowerBound, s.LPLowerBound)
	}
	sb.WriteString("\n")
	fmt.Fprintf(&sb, "bin uses:           %d (%d assignments, fill rate %.1f%%)\n",
		s.NumUses, s.NumAssignments, 100*s.FillRate)

	for _, u := range s.Uses {
		fmt.Fprintf(&sb, "  b%-3d              %6d uses   $%.4f\n",
			u.Cardinality, u.Count, s.CostByCardinality[u.Cardinality])
	}
	fmt.Fprintf(&sb, "assignments/task:   min %.0f  mean %.2f  max %.0f\n",
		s.AssignmentsPerTask.Min, s.AssignmentsPerTask.Mean, s.AssignmentsPerTask.Max)
	fmt.Fprintf(&sb, "reliability slack:  min %+.3f  mean %+.3f  max %+.3f (transformed mass)\n",
		s.Slack.Min, s.Slack.Mean, s.Slack.Max)
	fmt.Fprintf(&sb, "over-provision:     ≈$%.4f of the spend buys slack beyond thresholds\n",
		s.OverProvisionCost)
	if s.Slack.Min < -core.RelTol {
		sb.WriteString("WARNING: negative slack — the plan is infeasible\n")
	}
	return sb.String()
}

// Compare runs Analyze for several (name, plan) pairs and renders a
// side-by-side comparison table on the shared instance.
func Compare(in *core.Instance, plans map[string]*core.Plan) (string, error) {
	names := make([]string, 0, len(plans))
	for name := range plans {
		names = append(names, name)
	}
	sort.Strings(names)
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-16s%12s%10s%12s%12s%12s\n",
		"algorithm", "cost", "×LP", "bin uses", "fill", "mean slack")
	for _, name := range names {
		st, err := Analyze(in, plans[name])
		if err != nil {
			return "", fmt.Errorf("analysis: %s: %w", name, err)
		}
		ratio := math.Inf(1)
		if st.LPLowerBound > 0 {
			ratio = st.Cost / st.LPLowerBound
		}
		fmt.Fprintf(&sb, "%-16s%12.4f%10.2f%12d%11.1f%%%+12.3f\n",
			name, st.Cost, ratio, st.NumUses, 100*st.FillRate, st.Slack.Mean)
	}
	return sb.String(), nil
}
