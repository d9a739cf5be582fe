package opq

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/binset"
	"repro/internal/core"
)

// sameElems reports whether two queues hold the same elements bit for bit:
// counts, LCM, UC, Mass and run recipes. Threshold is not compared.
func sameElems(a, b *Queue) bool {
	if len(a.Elems) != len(b.Elems) {
		return false
	}
	for i := range a.Elems {
		x, y := &a.Elems[i], &b.Elems[i]
		if x.LCM != y.LCM || !slices.Equal(x.counts, y.counts) ||
			math.Float64bits(x.UC) != math.Float64bits(y.UC) ||
			math.Float64bits(x.Mass) != math.Float64bits(y.Mass) ||
			x.run.BlockLen != y.run.BlockLen || !slices.Equal(x.run.Parts, y.run.Parts) {
			return false
		}
	}
	return true
}

// firstAbove returns the least threshold in [0, 1) whose need exceeds x, or
// 1 when there is none. Need is non-decreasing in t, and non-negative floats
// order as their bit patterns, so this bisects on the bits.
func firstAbove(x float64) float64 {
	lo, hi := uint64(0), math.Float64bits(1) // Need(lo) ≤ x < Need(hi) until the end
	if Need(0) > x {
		return 0
	}
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if Need(math.Float64frombits(mid)) > x {
			hi = mid
		} else {
			lo = mid
		}
	}
	return math.Float64frombits(hi)
}

// checkPiece builds (bins, th) with BuildPiece and holds the piece to its
// contract: Build at every probed t′ whose need lies in the piece returns
// the piece's queue bit for bit, and the first t′ whose need is above Hi
// returns a different queue. The probes are Nextafter steps around th,
// both ends of the piece found by bisection, and draws from rng inside it.
// It returns how many probes fell in the piece.
func checkPiece(t *testing.T, bins core.BinSet, th float64, rng *rand.Rand) int {
	t.Helper()
	q, piece, err := BuildPiece(bins, th)
	if err != nil {
		if _, berr := Build(bins, th); berr == nil {
			t.Fatalf("BuildPiece failed where Build did not: %v", err)
		}
		return 0
	}
	ref, err := Build(bins, th)
	if err != nil || !sameElems(q, ref) || q.Threshold != th {
		t.Fatalf("BuildPiece's queue differs from Build's (err %v)", err)
	}
	if core.Theta(th) == 0 {
		if piece != (Piece{}) {
			t.Fatalf("θ = 0 build got the shareable piece %+v", piece)
		}
		return 0
	}
	need := Need(th)
	if !(piece.Lo >= -core.RelTol) || piece.Hi < need {
		t.Fatalf("piece %+v for need %v: Lo below -RelTol or Hi below the need", piece, need)
	}
	if need > -core.RelTol && !piece.Contains(need) {
		t.Fatalf("piece %+v does not contain its own need %v", piece, need)
	}
	above := firstAbove(piece.Hi)
	probes := []float64{th, above, math.Nextafter(above, 0), firstAbove(piece.Lo)}
	for i, up, down := 0, th, th; i < 4; i++ {
		up, down = math.Nextafter(up, 1), math.Nextafter(down, 0)
		probes = append(probes, up, down)
	}
	lo, hi := firstAbove(piece.Lo), math.Nextafter(above, 0)
	for i := 0; i < 6 && lo < hi; i++ {
		probes = append(probes, lo+(hi-lo)*rng.Float64())
	}
	in := 0
	for _, tp := range probes {
		if !(tp >= 0 && tp < 1) || !piece.Contains(Need(tp)) {
			continue
		}
		got, err := Build(bins, tp)
		if err != nil {
			continue // past the node budget: no queue to compare
		}
		in++
		if !sameElems(got, q) {
			t.Fatalf("t′ = %v (need %v) lies in piece %+v of t = %v but builds another queue:\n%v\nvs\n%v",
				tp, Need(tp), piece, th, got.Elems, q.Elems)
		}
	}
	if above < 1 && piece.Hi < maxAssignments*weakestWeight(bins) {
		if got, err := Build(bins, above); err == nil && sameElems(got, q) {
			t.Fatalf("t′ = %v just above Hi = %v still builds the same queue: Hi is not tight", above, piece.Hi)
		}
	}
	return in
}

func weakestWeight(bins core.BinSet) float64 {
	w := math.Inf(1)
	for i := 0; i < bins.Len(); i++ {
		w = min(w, bins.At(i).Weight())
	}
	return w
}

// pieceSeeds are tieMenu inputs, beside cutSeeds, that FuzzQueuePiece found
// against deliberately broken piece passes: a bound-cut node that does not
// raise lo to where its bound stops firing, and a Lemma-1 node tied exactly
// (LCM and UC) with the element that dominates it, which wins that tie by
// enumeration order once it is feasible.
var pieceSeeds = []struct {
	data []byte
	t    uint16
}{
	{[]byte{48, 246, 55, 49, 48, 50}, 58017},
	{[]byte{48, 200, 67, 49, 2, 48}, 58077},
}

// TestQueuePiece runs checkPiece over the cut and piece seeds, random menus, SMIC-20
// at cold-menu's thresholds and the θ = 0 edge, and logs how many nodes the
// piece's second enumeration visits against the build's.
func TestQueuePiece(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i, s := range append(cutSeeds, pieceSeeds...) {
		bins, _ := tieMenu(s.data)
		t.Run(fmt.Sprintf("seed%d", i), func(t *testing.T) { checkPiece(t, bins, cutSeedThreshold(s.t), rng) })
	}
	for trial := 0; trial < 30; trial++ {
		bins := randomMenu(rng)
		th := 0.5 + 0.49*rng.Float64()
		t.Run(fmt.Sprintf("random%d", trial), func(t *testing.T) { checkPiece(t, bins, th, rng) })
	}
	smic20 := binset.MustSMIC(20)
	var built, second int
	for i, th := range coldMenuThresholds() {
		if i%8 == 0 {
			checkPiece(t, smic20, th, rng)
		}
		var b builder
		if err := b.init(smic20, th, DefaultNodeBudget, true); err != nil {
			t.Fatal(err)
		}
		if err := b.run(); err != nil {
			t.Fatal(err)
		}
		built += b.stats.NodesVisited
		b.piece()
		second += b.stats.NodesVisited
	}
	t.Logf("SMIC-20 over cold-menu's thresholds: the piece pass visits %.2f× the build's nodes", float64(second)/float64(built))
	for _, th := range []float64{0, math.Copysign(0, -1), 1e-300, 1e-9} {
		checkPiece(t, binset.Table1(), th, rng)
	}

	// A piece pass that runs out of budget certifies nothing.
	var b builder
	if err := b.init(smic20, 0.995, DefaultNodeBudget, true); err != nil {
		t.Fatal(err)
	}
	if err := b.run(); err != nil {
		t.Fatal(err)
	}
	b.budget = 10
	if p := b.piece(); p != (Piece{}) {
		t.Errorf("a piece pass past its budget returned %+v, want the zero Piece", p)
	}
}

// FuzzQueuePiece is checkPiece over fuzzed menus of 1-10 bins with
// cardinalities ≤ 24, costs that force UC ties and thresholds in
// [0.5, 0.9999], seeded like FuzzBuildCutsPreserveQueue plus pieceSeeds.
func FuzzQueuePiece(f *testing.F) {
	for _, s := range append(cutSeeds, pieceSeeds...) {
		f.Add(s.data, s.t)
	}
	f.Fuzz(func(t *testing.T, data []byte, rawT uint16) {
		bins, ok := tieMenu(data)
		if !ok {
			t.Skip("no bins")
		}
		checkPiece(t, bins, cutSeedThreshold(rawT), rand.New(rand.NewSource(int64(rawT)<<16|int64(len(data)))))
	})
}

// TestPiecesPerMenu sweeps 1,000 thresholds over [0.5, 0.98] for three
// menus, building only where no piece built so far holds the need, checks
// every answer from a piece against Build, and logs how many pieces each
// menu needs: the working set a queue cache keeps per menu over the
// paper's range.
func TestPiecesPerMenu(t *testing.T) {
	const sweep = 1000
	for _, m := range []struct {
		name string
		bins core.BinSet
	}{{"Jelly-20", binset.MustJelly(20)}, {"SMIC-20", binset.MustSMIC(20)}, {"Table-1", binset.Table1()}} {
		type held struct {
			piece Piece
			q     *Queue
		}
		var pieces []held
		hits := 0
		for i := 0; i < sweep; i++ {
			th := 0.5 + 0.48*float64(i)/(sweep-1)
			need := Need(th)
			var q *Queue
			for _, h := range pieces {
				if h.piece.Contains(need) {
					q = h.q
				}
			}
			if q == nil {
				built, piece, err := BuildPiece(m.bins, th)
				if err != nil {
					t.Fatal(err)
				}
				pieces = append(pieces, held{piece, built})
				continue
			}
			hits++
			ref, err := Build(m.bins, th)
			if err != nil {
				t.Fatal(err)
			}
			if !sameElems(ref, q) {
				t.Fatalf("%s at t = %v: a piece answered with another threshold's queue that Build does not return", m.name, th)
			}
		}
		t.Logf("| %s | [0.5, 0.98] | %d | %d pieces | %d hits checked, 0 mismatches |", m.name, sweep, len(pieces), hits)
	}
}
