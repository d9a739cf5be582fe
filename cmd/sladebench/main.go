// Command sladebench regenerates the figures of the SLADE paper's
// evaluation (Section 7) as text tables or CSV.
//
// Usage:
//
//	sladebench -fig all            # every figure (6a-6l, 7a-7d, 8a-8b)
//	sladebench -fig 6a             # one figure
//	sladebench -fig 6i -csv        # CSV output
//
// Figure identifiers follow the paper: 6a/6c (Jelly, t vs cost/time),
// 6b/6d (SMIC), 6e/6g and 6f/6h (|B| sweeps), 6i/6k and 6j/6l (scalability),
// 7a/7b (σ), 7c/7d (µ), 8a/8b (heterogeneous scalability). Figure pairs are
// produced together (asking for 6a also prints 6c, etc.).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/experiments"
)

func main() {
	fig := flag.String("fig", "all", "figure id (6a..6l, 7a..7d, 8a, 8b) or 'all'")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	flag.Parse()

	if err := run(os.Stdout, *fig, *csv); err != nil {
		fmt.Fprintln(os.Stderr, "sladebench:", err)
		os.Exit(1)
	}
}

// run executes the requested figure group(s) and writes them to w.
func run(w io.Writer, fig string, csv bool) error {
	type job struct {
		ids []string
		fn  func() ([]experiments.Figure, error)
	}
	jobs := []job{
		{[]string{"6a", "6c"}, func() ([]experiments.Figure, error) { return pair(experiments.Fig6T(experiments.Jelly)) }},
		{[]string{"6b", "6d"}, func() ([]experiments.Figure, error) { return pair(experiments.Fig6T(experiments.SMIC)) }},
		{[]string{"6e", "6g"}, func() ([]experiments.Figure, error) { return pair(experiments.Fig6B(experiments.Jelly)) }},
		{[]string{"6f", "6h"}, func() ([]experiments.Figure, error) { return pair(experiments.Fig6B(experiments.SMIC)) }},
		{[]string{"6i", "6k"}, func() ([]experiments.Figure, error) { return pair(experiments.Fig6N(experiments.Jelly)) }},
		{[]string{"6j", "6l"}, func() ([]experiments.Figure, error) { return pair(experiments.Fig6N(experiments.SMIC)) }},
		{[]string{"7a", "7b"}, func() ([]experiments.Figure, error) { return pair(experiments.Fig7Sigma()) }},
		{[]string{"7c", "7d"}, func() ([]experiments.Figure, error) { return pair(experiments.Fig7Mu()) }},
		{[]string{"8a"}, func() ([]experiments.Figure, error) { return single(experiments.Fig8(experiments.Jelly)) }},
		{[]string{"8b"}, func() ([]experiments.Figure, error) { return single(experiments.Fig8(experiments.SMIC)) }},
		// 7x/7y regenerate the distribution study Section 7.2 mentions and
		// omits (uniform and heavy-tailed threshold workloads).
		{[]string{"7x", "7y"}, func() ([]experiments.Figure, error) { return pair(experiments.DistributionStudy(experiments.DefaultN)) }},
	}

	matched := false
	for _, j := range jobs {
		if fig != "all" && !contains(j.ids, fig) {
			continue
		}
		matched = true
		figs, err := j.fn()
		if err != nil {
			return err
		}
		for _, f := range figs {
			if csv {
				fmt.Fprintf(w, "# Figure %s — %s\n%s\n", f.ID, f.Title, f.CSV())
			} else {
				fmt.Fprintln(w, f.Render())
			}
		}
	}
	if !matched {
		return fmt.Errorf("unknown figure %q", fig)
	}
	return nil
}

func pair(a, b experiments.Figure, err error) ([]experiments.Figure, error) {
	return []experiments.Figure{a, b}, err
}

func single(a experiments.Figure, err error) ([]experiments.Figure, error) {
	return []experiments.Figure{a}, err
}

func contains(ids []string, want string) bool {
	for _, id := range ids {
		if id == want {
			return true
		}
	}
	return false
}
