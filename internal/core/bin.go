// Package core defines the data model of the SLADE task-decomposition
// problem: task bins, problem instances, decomposition plans, and the
// reliability arithmetic shared by every solver.
//
// The model follows Section 3 of "SLADE: A Smart Large-Scale Task Decomposer
// in Crowdsourcing" (Tong et al.). A large-scale crowdsourcing task is a set
// of n independent binary atomic tasks. An l-cardinality task bin
// b_l = <l, r_l, c_l> batches up to l distinct atomic tasks, gives each a
// confidence r_l (probability a worker answers it correctly), and costs c_l
// per use. The reliability of an atomic task assigned to a set of bins is
//
//	Rel = 1 - Π (1 - r_|β|)
//
// and the SLADE problem asks for the cheapest multiset of bin uses (with a
// placement of tasks into bins) such that every task's reliability meets its
// threshold.
package core

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
)

// TaskBin is an l-cardinality task bin: a container for up to Cardinality
// distinct atomic tasks that one crowd worker completes in a single batch.
type TaskBin struct {
	// Cardinality is the maximum number of distinct atomic tasks the bin
	// can hold (l in the paper). Must be >= 1.
	Cardinality int `json:"cardinality"`
	// Confidence is the average probability r_l that a worker correctly
	// completes each atomic task in the bin. Must lie strictly in (0, 1):
	// r_l = 0 contributes nothing and r_l = 1 makes the covering problem
	// degenerate (its log-weight is infinite).
	Confidence float64 `json:"confidence"`
	// Cost is the incentive cost c_l paid for one use of the bin. Must be
	// positive.
	Cost float64 `json:"cost"`
}

// Weight returns the transformed per-task reliability contribution
// w_l = -ln(1 - r_l) from Eq. (2) of the paper. Assigning a task to this bin
// adds Weight to the task's transformed reliability mass.
func (b TaskBin) Weight() float64 {
	return -math.Log1p(-b.Confidence)
}

// Validate reports whether the bin's fields are in their legal domains.
func (b TaskBin) Validate() error {
	if b.Cardinality < 1 {
		return fmt.Errorf("core: bin cardinality %d < 1", b.Cardinality)
	}
	if !(b.Confidence > 0 && b.Confidence < 1) {
		return fmt.Errorf("core: bin confidence %v outside (0,1)", b.Confidence)
	}
	if math.IsNaN(b.Cost) || b.Cost <= 0 {
		return fmt.Errorf("core: bin cost %v must be positive", b.Cost)
	}
	if math.IsInf(b.Cost, 1) {
		return fmt.Errorf("core: bin cost %v must be finite", b.Cost)
	}
	return nil
}

// BinSet is the menu B = {b_1, ..., b_m} of available task bins, with at most
// one bin per cardinality, ordered by ascending cardinality. The zero value
// is an empty menu. A BinSet is valid by construction: only NewBinSet,
// which validates, and Truncate, which keeps a prefix, build one.
type BinSet struct {
	bins []TaskBin
	// key is Key's value, built once by the constructor; nil for an empty
	// menu. A pointer, so a BinSet stays 32 bytes.
	key *string
}

// NewBinSet builds a BinSet from the given bins. It validates every bin,
// rejects duplicate cardinalities, and sorts by cardinality.
func NewBinSet(bins []TaskBin) (BinSet, error) {
	out := make([]TaskBin, len(bins))
	copy(out, bins)
	slices.SortFunc(out, func(a, b TaskBin) int { return cmp.Compare(a.Cardinality, b.Cardinality) })
	for i, b := range out {
		if err := b.Validate(); err != nil {
			return BinSet{}, err
		}
		if i > 0 && out[i-1].Cardinality == b.Cardinality {
			return BinSet{}, fmt.Errorf("core: duplicate bin cardinality %d", b.Cardinality)
		}
	}
	return BinSet{bins: out, key: keyOf(out)}, nil
}

// MustBinSet is NewBinSet that panics on error; intended for tests and
// statically known menus.
func MustBinSet(bins []TaskBin) BinSet {
	bs, err := NewBinSet(bins)
	if err != nil {
		panic(err)
	}
	return bs
}

// Len returns the number of distinct bins m = |B| in the menu.
func (s BinSet) Len() int { return len(s.bins) }

// Bins returns a copy of the menu ordered by ascending cardinality.
func (s BinSet) Bins() []TaskBin {
	out := make([]TaskBin, len(s.bins))
	copy(out, s.bins)
	return out
}

// At returns the i-th bin in ascending-cardinality order (0-based).
func (s BinSet) At(i int) TaskBin { return s.bins[i] }

// ByCardinality returns the bin with the given cardinality, if present.
func (s BinSet) ByCardinality(l int) (TaskBin, bool) {
	i := sort.Search(len(s.bins), func(i int) bool { return s.bins[i].Cardinality >= l })
	if i < len(s.bins) && s.bins[i].Cardinality == l {
		return s.bins[i], true
	}
	return TaskBin{}, false
}

// MaxCardinality returns the largest cardinality in the menu, or 0 if empty.
func (s BinSet) MaxCardinality() int {
	if len(s.bins) == 0 {
		return 0
	}
	return s.bins[len(s.bins)-1].Cardinality
}

// MinWeight returns the smallest transformed weight min_l -ln(1-r_l) over
// the menu, or +Inf if the menu is empty. It bounds the depth of any
// combination enumeration: no task ever needs more than ceil(θ/MinWeight)
// bin assignments... every bin contributes at least MinWeight.
func (s BinSet) MinWeight() float64 {
	w := math.Inf(1)
	for _, b := range s.bins {
		if bw := b.Weight(); bw < w {
			w = bw
		}
	}
	return w
}

// Truncate returns the sub-menu of bins with cardinality at most maxCard.
// It is used by the |B| parameter sweeps of the evaluation (Fig. 6e–6h).
func (s BinSet) Truncate(maxCard int) BinSet {
	i := sort.Search(len(s.bins), func(i int) bool { return s.bins[i].Cardinality > maxCard })
	out := make([]TaskBin, i)
	copy(out, s.bins[:i])
	return BinSet{bins: out, key: keyOf(out)}
}

// MinConfidence returns the smallest confidence in the menu, or 0 if empty.
func (s BinSet) MinConfidence() float64 {
	if len(s.bins) == 0 {
		return 0
	}
	r := 1.0
	for _, b := range s.bins {
		if b.Confidence < r {
			r = b.Confidence
		}
	}
	return r
}

// Key returns the menu's canonical key: every bin's cardinality,
// confidence bits and cost bits, each as eight big-endian bytes, in menu
// order. Two BinSets share a key exactly when they hold the same bins;
// the zero BinSet and the empty menu key as "". It is built once, when
// the set is built.
func (s BinSet) Key() string {
	if s.key == nil {
		return ""
	}
	return *s.key
}

// keyOf builds Key's value over bins, or nil for no bins.
func keyOf(bins []TaskBin) *string {
	if len(bins) == 0 {
		return nil
	}
	b := make([]byte, 0, 24*len(bins))
	for _, bin := range bins {
		b = binary.BigEndian.AppendUint64(b, uint64(bin.Cardinality))
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(bin.Confidence))
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(bin.Cost))
	}
	k := string(b)
	return &k
}

// Theta converts a reliability threshold t in [0,1) to its transformed
// demand θ = -ln(1-t) from Eq. (2). Theta(0) = 0; Theta is strictly
// increasing and unbounded as t approaches 1.
func Theta(t float64) float64 {
	return -math.Log1p(-t)
}

// ThresholdFromTheta is the inverse of Theta: t = 1 - e^{-θ}.
func ThresholdFromTheta(theta float64) float64 {
	return -math.Expm1(-theta)
}
