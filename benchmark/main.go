// Command benchmark is the repository's one performance ledger: six
// closed-loop workloads driven over real loopback sockets against the real
// service stack booted in-process, end-to-end metrics from a timed run and
// per-layer metrics from a separate traced run. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	repeat   int
	// scale and outDir are not flags. The smoke test sets them, to run 2 %
	// of every op count and to write into a temporary directory; every
	// other run has scale 1 and writes to out/ beside the sources, where
	// run.sh starts the program.
	scale  float64
	outDir string

	stdout, stderr io.Writer
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func newResult(t *tally) *result {
	return &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: make(map[string]metric)}
}

// set records a metric under the unit its definition fixes.
func (r *result) set(name string, v float64) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				r.Metrics[name] = metric{Value: v, Unit: d.unit}
				return
			}
		}
	}
	panic("benchmark: metric " + name + " has no definition")
}

// print writes every metric of defs by name with its unit, then the JSON
// result line.
func (r *result) print(w io.Writer, defs []metricDef) error {
	for _, d := range defs {
		m, ok := r.Metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		fmt.Fprintf(w, "%-36s %16.6f %s\n", d.name, m.Value, m.Unit)
	}
	fail := 0.0
	if r.Attempted > 0 {
		fail = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Fprintf(w, "%-36s %16.6f ratio (%d failed / %d attempted)\n", "fail_ratio", fail, r.Failed, r.Attempted)
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	cfg := &config{scale: 1, outDir: "out", stdout: stdout, stderr: stderr}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.workload, "workload", "", "workload name, or \"all\": "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "the only source of sizes, thresholds, op order and platform seeds")
	fs.Float64Var(&cfg.seconds, "seconds", 13, "measure whole rounds of the workload's fixed op count until this many seconds have passed; ten rounds on the reference machine")
	fs.IntVar(&cfg.trace, "trace", 0, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics and a span file")
	fs.IntVar(&cfg.repeat, "repeat", 0, "run the workload this many times in fresh processes on the same seed and hold each end-to-end metric's (max-min)/median against its bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = workloadNames()
	}
	for _, name := range names {
		w := findWorkload(name)
		if w == nil {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q (have %s, all)\n", name, strings.Join(workloadNames(), ", "))
			return 2
		}
		var err error
		if cfg.repeat > 0 {
			err = repeatRun(cfg, w)
		} else {
			err = runOnce(cfg, w)
		}
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", name, err)
			return 1
		}
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i := range workloads {
		names[i] = workloads[i].name
	}
	return names
}

// runOnce runs the workload timed or traced and prints the result. An
// incorrect run still prints its result line (the failures are in it) and
// then fails the process.
func runOnce(cfg *config, w *workload) error {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	fmt.Fprintf(cfg.stdout, "workload=%s seed=%d clients=%d closed-loop nproc=%d GOMAXPROCS=%d %s\n",
		w.name, cfg.seed, w.clients(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	var res *result
	var err error
	defs := endToEnd
	if cfg.trace != 0 {
		defs = perLayer
		res, err = tracedRun(cfg, w)
	} else {
		res, err = timedRun(cfg, w)
	}
	if err != nil {
		return err
	}
	if err := res.print(cfg.stdout, defs); err != nil {
		return err
	}
	if !res.Correct {
		return fmt.Errorf("%d of %d operations failed a check", res.Failed, res.Attempted)
	}
	return nil
}

// repeatRun is the self-check: the same build and seed, cfg.repeat fresh
// processes, and for every end-to-end metric min / median / max and
// (max-min)/median against the metric's bound. A spread over the bound —
// or any spread at all on an exact metric — fails the process. A spread
// between half the bound and the bound passes as "wide": a later
// comparison on that metric is unresolved unless every run of one side
// beats every run of the other.
func repeatRun(cfg *config, w *workload) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	values := make(map[string][]float64)
	for i := 0; i < cfg.repeat; i++ {
		cmd := exec.Command(exe, "-workload", w.name, "-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(cfg.seconds))
		cmd.Stderr = cfg.stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run %d: %w", i+1, err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return fmt.Errorf("run %d: result line: %w", i+1, err)
		}
		if !res.Correct {
			return fmt.Errorf("run %d: %d of %d operations failed", i+1, res.Failed, res.Attempted)
		}
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
		}
	}
	fmt.Fprintf(cfg.stdout, "\n### %s — %d runs of %v s, seed %d, nproc=%d, %s\n\n", w.name, cfg.repeat, cfg.seconds, cfg.seed, runtime.NumCPU(), runtime.Version())
	fmt.Fprintln(cfg.stdout, "| metric | unit | min | median | max | (max-min)/median | bound | |")
	fmt.Fprintln(cfg.stdout, "|---|---|---|---|---|---|---|---|")
	var over []string
	for _, d := range endToEnd {
		v := values[d.name]
		lo, med, hi := quantile(v, 0), median(v), quantile(v, 1)
		spread := (hi - lo) / med
		verdict, bound := "ok", fmt.Sprintf("%.1f %%", 100*d.bound)
		if d.exact {
			bound = "exact"
		}
		switch {
		case d.exact && hi != lo, spread > d.bound:
			verdict = "OVER"
			over = append(over, d.name)
		case spread > d.bound/2 && !d.exact:
			verdict = "wide"
		}
		fmt.Fprintf(cfg.stdout, "| `%s` | %s | %.9g | %.9g | %.9g | %.2f %% | %s | %s |\n",
			d.name, d.unit, lo, med, hi, 100*spread, bound, verdict)
	}
	if len(over) > 0 {
		return fmt.Errorf("spread over the bound on %s", strings.Join(over, ", "))
	}
	return nil
}
