package opq

import (
	"math"

	"repro/internal/core"
)

// Piece is an interval (Lo, Hi] of needs Need(t) on which Algorithm 2
// returns one queue, element for element and bit for bit: the queue is
// piecewise constant in t, because it depends on t only through which bin
// multisets are feasible at θ(t). The zero Piece contains no need.
type Piece struct {
	Lo, Hi float64
}

// Contains reports whether need lies in (Lo, Hi].
func (p Piece) Contains(need float64) bool { return p.Lo < need && need <= p.Hi }

// BuildPiece is Build plus the piece of needs the returned queue is valid on:
// for every t′ with piece.Contains(Need(t′)), Build(t′) returns the same
// elements (counts, LCM, UC, Mass and recipes) and differs only in
// Threshold. A queue built at θ(t) = 0 gets the zero Piece, because a solve
// over it plans nothing (planSteps) and so must never answer a t′ > 0.
//
// Hi is the least Mass over the queue: just above it that element is no
// longer feasible. It is capped at the largest need Build accepts. Lo comes
// from a second, allocation-free enumeration at the same need with the
// final frontier held fixed (lower); it never falls below −core.RelTol, the
// need of t = 0. BuildPiece allocates exactly what Build does.
func BuildPiece(bins core.BinSet, t float64) (*Queue, Piece, error) {
	var b builder
	if err := b.init(bins, t, DefaultNodeBudget, true); err != nil {
		return nil, Piece{}, err
	}
	if err := b.run(); err != nil {
		return nil, Piece{}, err
	}
	return b.q, b.piece(), nil
}

// piece returns the built queue's Piece; see BuildPiece.
func (b *builder) piece() Piece {
	if core.Theta(b.q.Threshold) == 0 {
		return Piece{}
	}
	hi := b.maxNeed
	for i := range b.q.Elems {
		hi = min(hi, b.q.Elems[i].Mass)
	}
	b.stats, b.lo = BuildStats{}, -core.RelTol
	if !b.lower(0, 1, 0, 0) {
		return Piece{} // past the node budget: the queue serves its own t only
	}
	return Piece{Lo: b.lo, Hi: hi}
}

// lower raises b.lo to the least need down to which every decision of the
// enumeration at b.need, judged against the final frontier, still holds:
// above it, every multiset the enumeration recursed into stays infeasible,
// and every subtree it skipped still holds nothing the frontier does not
// beat. Then the feasible multisets that decide Definition 4's frontier are
// the same, and so is the queue. Per node:
//
//   - a feasible node is a leaf at every need up to its mass ≥ b.need, and
//     Hi already keeps the need at or below every element's mass;
//   - a node the frontier dominates (Lemma 1) contributes nothing: the
//     deciding element beats it and every superset at any need, strictly on
//     UC or LCM. An exact (LCM, UC) tie would win its tie by enumeration
//     order once feasible, so it must stay infeasible, which raises lo to its
//     mass;
//   - a node the cost bound can skip must stay infeasible and its bound must
//     stay above the deciding element's UC, which raises lo to its mass and
//     to the need where the bound meets that UC (boundLo). Where that need
//     is not below b.need, the node is recursed into instead;
//   - any other infeasible node is recursed into and raises lo to its mass.
//
// It reports false past Build's node budget; it visits under half the
// nodes Build does.
func (b *builder) lower(p int, l0 int64, uc0, mass0 float64) bool {
	for k := p; k < len(b.terms); k++ {
		b.stats.NodesVisited++
		if b.stats.NodesVisited > b.budget {
			return false
		}
		tm := &b.terms[k]
		l, err := lcm(l0, tm.card)
		if err != nil {
			continue // skipped at every need
		}
		uc, mass := uc0+tm.unit, mass0+tm.weight
		if mass >= b.need {
			continue
		}
		if e := b.q.decider(l); e != nil {
			if e.UC <= uc {
				b.stats.Lemma1Cuts++
				if e.LCM == l && e.UC == uc {
					b.lo = max(b.lo, mass)
				}
				continue
			}
			if lo := boundLo(e.UC, uc, mass, tm.minRatio); lo < b.need {
				b.stats.BoundCuts++
				b.lo = max(b.lo, mass, lo)
				continue
			}
		}
		b.lo = max(b.lo, mass)
		if !b.lower(k, l, uc, mass) {
			return false
		}
	}
	return true
}

// boundLo returns a need at or above the one where a node's cost bound
// (uc + (need − mass)·minRatio)·boundSlack meets eUC. Above it the bound
// exceeds eUC, so every feasible descendant is strictly dearer than the
// deciding element and loses to it. The float evaluation errs by under
// 6·2⁻⁵³ of M = (eUC/boundSlack + uc)/minRatio + |mass|, so adding 1e-12·M
// rounds the result up past the real one. A NaN (from infinite costs)
// compares false against any need, and the caller recurses instead.
func boundLo(eUC, uc, mass, minRatio float64) float64 {
	a := eUC / boundSlack
	return (a-uc)/minRatio + mass + 1e-12*((a+uc)/minRatio+math.Abs(mass))
}
