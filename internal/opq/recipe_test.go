package opq

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/binset"
	"repro/internal/core"
)

// perSolveSized is solveSized as it was before queues carried their run
// recipes, kept as the oracle: a recipe built per distinct combination a
// solve applies (memoized within the solve) and runs appended as planned.
func perSolveSized(q *Queue, n int) (*core.Plan, error) {
	pr := &core.Plan{}
	if n == 0 {
		if len(q.Elems) == 0 {
			return nil, fmt.Errorf("opq: empty queue")
		}
		return pr, nil
	}
	var srcs []*Comb
	var specs []*core.RunComb
	spec := func(c *Comb) *core.RunComb {
		for i, s := range srcs {
			if s == c {
				return specs[i]
			}
		}
		parts := make([]core.RunPart, 0, len(c.counts))
		for bi, nk := range c.counts {
			if nk == 0 {
				continue
			}
			parts = append(parts, core.RunPart{Cardinality: c.bins.At(bi).Cardinality, Count: nk})
		}
		rc := &core.RunComb{Parts: parts, BlockLen: int(c.LCM)}
		srcs, specs = append(srcs, c), append(specs, rc)
		return rc
	}
	pos := 0
	err := planSteps(q, n, func(c *Comb, blocks, rem int) {
		ln := blocks * int(c.LCM)
		if blocks == 0 {
			ln = rem
		}
		pr.Runs = append(pr.Runs, core.BlockRun{Comb: spec(c), Blocks: blocks, Off: pos, Len: ln})
		pos += ln
	})
	if err != nil {
		return nil, err
	}
	if len(pr.Runs) > 0 {
		pr.N = n
	}
	return pr, nil
}

// sameRuns fails unless got and want describe the same plan: arena, base,
// N and every run's Blocks, Off, Len, Parts and BlockLen — and encode to the
// same JSON bytes.
func sameRuns(t *testing.T, label string, got, want *core.Plan) {
	t.Helper()
	if !reflect.DeepEqual(got.Arena, want.Arena) || got.Base != want.Base || got.N != want.N {
		t.Fatalf("%s: arena %v base %d n %d, want %v base %d n %d", label, got.Arena, got.Base, got.N, want.Arena, want.Base, want.N)
	}
	if len(got.Runs) != len(want.Runs) {
		t.Fatalf("%s: %d runs, want %d", label, len(got.Runs), len(want.Runs))
	}
	for i := range want.Runs {
		g, w := got.Runs[i], want.Runs[i]
		if g.Blocks != w.Blocks || g.Off != w.Off || g.Len != w.Len ||
			g.Comb.BlockLen != w.Comb.BlockLen || !reflect.DeepEqual(g.Comb.Parts, w.Comb.Parts) {
			t.Fatalf("%s: run %d = {%+v %d %d %d}, want {%+v %d %d %d}", label, i,
				*g.Comb, g.Blocks, g.Off, g.Len, *w.Comb, w.Blocks, w.Off, w.Len)
		}
	}
	var gb, wb bytes.Buffer
	if err := got.EncodeJSON(&gb); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if err := want.EncodeJSON(&wb); err != nil {
		t.Fatalf("%s: oracle: %v", label, err)
	}
	if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
		t.Fatalf("%s: EncodeJSON differs:\n got %.200s\nwant %.200s", label, gb.Bytes(), wb.Bytes())
	}
}

// FuzzSolveRunsRecipeParity holds SolveRunsRange and SolveRuns over the
// queue's prebuilt recipes to the per-solve recipe construction they
// replaced, over fuzzed menus (tieMenu), thresholds in [0.5, 0.9999], task
// counts 0..4,999 and bases.
func FuzzSolveRunsRecipeParity(f *testing.F) {
	for i, s := range cutSeeds {
		f.Add(s.data, s.t, uint16(37*i+1), int32(1000*i))
	}
	f.Add([]byte{0, 200, 3}, uint16(0), uint16(0), int32(0))
	f.Add([]byte{1, 10, 0, 2, 10, 0, 5, 10, 0}, uint16(65535), uint16(4999), int32(-7))
	f.Fuzz(func(t *testing.T, data []byte, rawT, rawN uint16, base int32) {
		bins, ok := tieMenu(data)
		if !ok {
			t.Skip("no bins")
		}
		q, err := Build(bins, cutSeedThreshold(rawT))
		if err != nil {
			t.Skip(err)
		}
		n := int(rawN) % 5000
		want, err := perSolveSized(q, n)
		if err != nil {
			t.Fatal(err)
		}
		got, err := SolveRunsRange(q, int(base), n)
		if err != nil {
			t.Fatal(err)
		}
		want.Base = int(base)
		sameRuns(t, "SolveRunsRange", got, want)

		tasks := make([]int, n)
		for i := range tasks {
			tasks[i] = int(base) + 3*i
		}
		if got, err = SolveRuns(q, tasks); err != nil {
			t.Fatal(err)
		}
		if want, err = perSolveSized(q, n); err != nil {
			t.Fatal(err)
		}
		if want.N > 0 {
			want.Arena, want.N = tasks, 0
		}
		sameRuns(t, "SolveRuns", got, want)
	})
}

// TestQueueRecipesSharedReadOnly runs, under -race, 8 goroutines that
// solve, encode, materialize, offset and merge plans from one cached
// queue, every run pointing at the queue's own recipes; afterwards each
// element's recipe still deep-equals the snapshot taken at build.
func TestQueueRecipesSharedReadOnly(t *testing.T) {
	q, err := Build(binset.MustSMIC(20), 0.95)
	if err != nil {
		t.Fatal(err)
	}
	snap := make([]core.RunComb, len(q.Elems))
	own := make(map[*core.RunComb]bool, len(q.Elems))
	for i := range q.Elems {
		r := q.Elems[i].run
		snap[i] = core.RunComb{Parts: append([]core.RunPart(nil), r.Parts...), BlockLen: r.BlockLen}
		own[r] = true
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				n := 1 + (g*997+i*131)%3000
				a, err := SolveRunsRange(q, g*10_000, n)
				if err != nil {
					errs <- err
					return
				}
				b, err := SolveRuns(q, seq(n))
				if err != nil {
					errs <- err
					return
				}
				for _, pr := range []*core.Plan{a, b} {
					for _, r := range pr.Runs {
						if !own[r.Comb] {
							errs <- fmt.Errorf("goroutine %d: a run's recipe is not the queue's", g)
							return
						}
					}
				}
				for i := range b.Arena {
					b.Arena[i] += n
				}
				m := core.MergePlans(a, b)
				for i := range m.Arena {
					m.Arena[i]--
				}
				if err := m.EncodeJSON(&bytes.Buffer{}); err != nil {
					errs <- err
					return
				}
				if len(a.Materialized()) == 0 || len(m.Materialized()) == 0 {
					errs <- fmt.Errorf("goroutine %d: empty materialization", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i := range q.Elems {
		if got := q.Elems[i].run; !reflect.DeepEqual(*got, snap[i]) {
			t.Errorf("element %d recipe changed: %+v, built as %+v", i, *got, snap[i])
		}
	}
}
