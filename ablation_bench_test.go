// Ablation benchmarks for the design choices DESIGN.md calls out:
//
//   - The Lemma-1 and cost-bound cuts in the OPQ construction (Algorithm 2):
//     disabling them yields the same queue at a much larger node count.
//   - Group-compressed Greedy vs the literal O(n² log n) Algorithm 1.
//   - Queue reuse in OPQ-Based: rebuilding the queue per solve vs sharing
//     one queue across solves (how the evaluation amortizes Figure 6).
//
// Run with: go test -bench=Ablation -benchmem
package slade_test

import (
	"testing"

	slade "repro"
	"repro/internal/core"
	"repro/internal/greedy"
	"repro/internal/opq"
)

// BenchmarkAblationOPQPruning compares Algorithm 2 with and without its two
// mid-enumeration cuts on the SMIC menu at a demanding threshold (0.999 →
// transformed demand ≈ 6.9, enumeration depth 6-7), reporting how many
// subtrees each rule skipped beside the node count. The rows it prints are
// the measurement; docs/BENCHMARKS.md § Findings records them per PR.
func BenchmarkAblationOPQPruning(b *testing.B) {
	menu, err := slade.SMICMenu(20)
	if err != nil {
		b.Fatal(err)
	}
	for _, cfg := range []struct {
		name  string
		prune bool
	}{{"cuts-on", true}, {"cuts-off", false}} {
		b.Run(cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			var stats opq.BuildStats
			for i := 0; i < b.N; i++ {
				_, stats, err = opq.BuildInstrumented(menu, 0.999, opq.DefaultNodeBudget, cfg.prune)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(stats.NodesVisited), "nodes")
			b.ReportMetric(float64(stats.Lemma1Cuts), "lemma1-cuts")
			b.ReportMetric(float64(stats.BoundCuts), "bound-cuts")
		})
	}
}

// BenchmarkAblationGreedyImplementation compares the group-compressed
// Greedy against the literal Algorithm-1 transcription at n = 2,000 (the
// naive version is O(n² log n) and dominates total bench time beyond that).
func BenchmarkAblationGreedyImplementation(b *testing.B) {
	menu, err := slade.JellyMenu(20)
	if err != nil {
		b.Fatal(err)
	}
	in, err := slade.NewHomogeneous(menu, 2_000, 0.95)
	if err != nil {
		b.Fatal(err)
	}
	for _, cfg := range []struct {
		name string
		fn   func(*core.Instance) (*core.Plan, error)
	}{{"group-compressed", greedy.Solve}, {"naive", greedy.SolveNaive}} {
		b.Run(cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := cfg.fn(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationOPQQueueReuse compares rebuilding the queue on every
// solve against building once and reusing it across solves.
func BenchmarkAblationOPQQueueReuse(b *testing.B) {
	menu, err := slade.JellyMenu(20)
	if err != nil {
		b.Fatal(err)
	}
	tasks := make([]int, 10_000)
	for i := range tasks {
		tasks[i] = i
	}
	b.Run("rebuild-per-solve", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			q, err := opq.Build(menu, 0.95)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := opq.SolveWithQueue(q, tasks); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("shared-queue", func(b *testing.B) {
		q, err := opq.Build(menu, 0.95)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := opq.SolveWithQueue(q, tasks); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationStreamVsOneShot measures the streaming planner's
// overhead relative to offline solving at the same scale.
func BenchmarkAblationStreamVsOneShot(b *testing.B) {
	menu, err := slade.JellyMenu(20)
	if err != nil {
		b.Fatal(err)
	}
	const n = 10_000
	b.Run("one-shot", func(b *testing.B) {
		in, err := slade.NewHomogeneous(menu, n, 0.95)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := slade.NewOPQ().Solve(in); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("streamed-100-per-batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p, err := slade.NewStreamPlanner(menu, 0.95)
			if err != nil {
				b.Fatal(err)
			}
			ids := make([]int, 100)
			for next := 0; next < n; next += 100 {
				for j := range ids {
					ids[j] = next + j
				}
				if _, err := p.Add(ids...); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := p.Flush(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
