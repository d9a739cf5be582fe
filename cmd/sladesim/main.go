// Command sladesim regenerates the figures of the SLADE paper as text
// tables or CSV: the motivation experiments of Section 2 (Figure 3) on the
// simulated crowd marketplace — probe bins of cardinality 2..30 at each pay
// tier, reporting mean confidence and the overtime rate per point — and
// the evaluation of Section 7 (Figures 6-8).
//
// Usage:
//
//	sladesim -fig 3a                  # Jelly, pay tiers 0.05/0.08/0.10
//	sladesim -fig 3b                  # SMIC,  pay tiers 0.05/0.10/0.20
//	sladesim -fig 3c                  # Jelly difficulty levels 1/2/3
//	sladesim -fig 3a -assignments 50  # smoother curves
//	sladesim -fig 6a                  # one evaluation figure
//	sladesim -fig 6i -csv             # CSV output
//	sladesim -fig all                 # every figure
//
// Points of Figure 3 whose overtime rate exceeds 50% correspond to the
// dotted segments of the paper's figure and are flagged with '*';
// -assignments and -seed apply to Figure 3 only. Evaluation figure ids
// follow the paper: 6a/6c (Jelly, t vs cost/time), 6b/6d (SMIC), 6e/6g and
// 6f/6h (|B| sweeps), 6i/6k and 6j/6l (scalability), 7a/7b (σ), 7c/7d (µ),
// 8a/8b (heterogeneous scalability), and 7x/7y, the threshold-distribution
// study Section 7.2 mentions and omits. Pairs are produced together
// (asking for 6a also prints 6c, etc.).
//
// With -matrix the command instead runs the scenario lab (internal/scenario):
// a seeded workload matrix through the full serving pipeline, emitting the
// machine-readable BENCH_scenarios.json and a reliability/cost/latency
// frontier table. See docs/SCENARIOS.md.
//
//	sladesim -matrix                          # full default matrix
//	sladesim -matrix -short                   # reduced CI smoke matrix
//	sladesim -matrix -cells adversarial,smic  # substring cell filter
//	sladesim -matrix -timing -out -           # timing blocks, stdout only
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"

	"repro/internal/experiments"
)

func main() {
	// flag.CommandLine is ExitOnError: a bad flag has already printed the
	// usage and exited 2, so the error is always nil here.
	o, _ := parseFlags(flag.CommandLine, os.Args[1:])
	var err error
	if o.matrix {
		err = runMatrix(os.Stdout, o.lab)
	} else {
		err = run(os.Stdout, o.figs)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sladesim:", err)
		os.Exit(1)
	}
}

// options is one sladesim invocation: the figures, or with matrix set the
// scenario lab.
type options struct {
	matrix bool
	figs   figOpts
	lab    matrixOpts
}

// figOpts carries the figure mode's flags.
type figOpts struct {
	fig         string // figure id or "all"
	assignments int    // Figure 3's probe bins per design point
	seed        int64  // Figure 3's simulator seed
	csv         bool   // CSV instead of aligned tables
}

// parseFlags declares every sladesim flag on fs and parses args. The docs
// mention no sladesim flag that is not declared here
// (TestDocsMatchSladesim).
func parseFlags(fs *flag.FlagSet, args []string) (options, error) {
	fig := fs.String("fig", "all", "figure id (3a..3c, 6a..6l, 7a..7d, 7x, 7y, 8a, 8b) or 'all'")
	assignments := fs.Int("assignments", 10, "Figure 3: probe bins per design point (paper used 10)")
	seed := fs.Int64("seed", 1, "simulator RNG seed (Figure 3, and the matrix's cell seeds)")
	csv := fs.Bool("csv", false, "emit figures as CSV instead of aligned tables")
	matrix := fs.Bool("matrix", false, "run the scenario matrix instead of the figures")
	short := fs.Bool("short", false, "with -matrix: run the reduced CI smoke matrix")
	cells := fs.String("cells", "", "with -matrix: comma-separated substrings selecting cells")
	out := fs.String("out", "BENCH_scenarios.json", "with -matrix: report path ('-' prints only)")
	timing := fs.Bool("timing", false, "with -matrix: include wall-clock timing blocks (nondeterministic)")
	check := fs.Bool("check", true, "with -matrix: fail if any cell misses its reliability target")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	return options{
		matrix: *matrix,
		figs:   figOpts{fig: *fig, assignments: *assignments, seed: *seed, csv: *csv},
		lab: matrixOpts{
			short:  *short,
			cells:  *cells,
			out:    *out,
			seed:   *seed,
			timing: *timing,
			check:  *check,
		},
	}, nil
}

// run renders the requested figure group(s) to w.
func run(w io.Writer, o figOpts) error {
	if o.assignments < 1 {
		return fmt.Errorf("assignments must be positive")
	}
	groups := []struct {
		ids []string
		// probe marks Figure 3, Section 2's simulator probes, which
		// printFig renders with their overtime markers.
		probe bool
		fn    func() ([]experiments.Figure, error)
	}{
		{[]string{"3a"}, true, func() ([]experiments.Figure, error) {
			return single(experiments.Fig3(experiments.Jelly, o.assignments, o.seed), nil)
		}},
		{[]string{"3b"}, true, func() ([]experiments.Figure, error) {
			return single(experiments.Fig3(experiments.SMIC, o.assignments, o.seed), nil)
		}},
		{[]string{"3c"}, true, func() ([]experiments.Figure, error) { return single(experiments.Fig3c(o.assignments, o.seed), nil) }},
		{[]string{"6a", "6c"}, false, func() ([]experiments.Figure, error) { return pair(experiments.Fig6T(experiments.Jelly)) }},
		{[]string{"6b", "6d"}, false, func() ([]experiments.Figure, error) { return pair(experiments.Fig6T(experiments.SMIC)) }},
		{[]string{"6e", "6g"}, false, func() ([]experiments.Figure, error) { return pair(experiments.Fig6B(experiments.Jelly)) }},
		{[]string{"6f", "6h"}, false, func() ([]experiments.Figure, error) { return pair(experiments.Fig6B(experiments.SMIC)) }},
		{[]string{"6i", "6k"}, false, func() ([]experiments.Figure, error) { return pair(experiments.Fig6N(experiments.Jelly)) }},
		{[]string{"6j", "6l"}, false, func() ([]experiments.Figure, error) { return pair(experiments.Fig6N(experiments.SMIC)) }},
		{[]string{"7a", "7b"}, false, func() ([]experiments.Figure, error) { return pair(experiments.Fig7Sigma()) }},
		{[]string{"7c", "7d"}, false, func() ([]experiments.Figure, error) { return pair(experiments.Fig7Mu()) }},
		{[]string{"8a"}, false, func() ([]experiments.Figure, error) { return single(experiments.Fig8(experiments.Jelly)) }},
		{[]string{"8b"}, false, func() ([]experiments.Figure, error) { return single(experiments.Fig8(experiments.SMIC)) }},
		{[]string{"7x", "7y"}, false, func() ([]experiments.Figure, error) {
			return pair(experiments.DistributionStudy(experiments.DefaultN))
		}},
	}
	var ids []string
	matched := false
	for _, g := range groups {
		ids = append(ids, g.ids...)
		if o.fig != "all" && !slices.Contains(g.ids, o.fig) {
			continue
		}
		matched = true
		figs, err := g.fn()
		if err != nil {
			return err
		}
		for _, f := range figs {
			switch {
			case o.csv:
				fmt.Fprintf(w, "# Figure %s — %s\n%s\n", f.ID, f.Title, f.CSV())
			case g.probe:
				printFig(w, f)
			default:
				fmt.Fprintln(w, f.Render())
			}
		}
	}
	if !matched {
		return fmt.Errorf("unknown figure %q (have %s, all)", o.fig, strings.Join(ids, ", "))
	}
	return nil
}

func pair(a, b experiments.Figure, err error) ([]experiments.Figure, error) {
	return []experiments.Figure{a, b}, err
}

func single(a experiments.Figure, err error) ([]experiments.Figure, error) {
	return []experiments.Figure{a}, err
}

// printFig renders a Figure-3 style table: one row per cardinality, one
// column per series, '*' marking mostly-overtime points and '-' marking
// points with no in-time answers at all.
func printFig(w io.Writer, f experiments.Figure) {
	fmt.Fprintf(w, "Figure %s — %s (* = >50%% overtime)\n", f.ID, f.Title)
	fmt.Fprintf(w, "%-12s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(w, "%14s", s.Label)
	}
	fmt.Fprintln(w)
	if len(f.Series) == 0 {
		return
	}
	for i := range f.Series[0].Points {
		fmt.Fprintf(w, "%-12.0f", f.Series[0].Points[i].X)
		for _, s := range f.Series {
			p := s.Points[i]
			switch {
			case math.IsNaN(p.Y):
				fmt.Fprintf(w, "%14s", "-")
			case p.Overtime > 0.5:
				fmt.Fprintf(w, "%13.3f*", p.Y)
			default:
				fmt.Fprintf(w, "%14.3f", p.Y)
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}
