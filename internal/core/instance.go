package core

import (
	"encoding/json"
	"fmt"
)

// Instance is one SLADE problem instance: a bin menu plus a reliability
// threshold per atomic task. Tasks are identified by their index 0..N()-1.
type Instance struct {
	bins BinSet
	n    int
	// lo and hi are the smallest and largest task threshold (0 for an empty
	// instance), recorded by the constructors' validation pass, so the
	// instance is homogeneous exactly when they are equal.
	lo, hi float64
	// thresholds holds one threshold per task; nil for an instance built by
	// NewHomogeneous, whose n tasks all carry hi.
	thresholds []float64
}

// checkMenu is the constructors' shared menu validation for n tasks.
func checkMenu(bins BinSet, n int) error {
	if err := bins.Validate(); err != nil {
		return err
	}
	if bins.Len() == 0 && n > 0 {
		return fmt.Errorf("core: empty bin menu for %d tasks", n)
	}
	return nil
}

// checkThreshold rejects a task threshold outside [0,1) (NaN included).
func checkThreshold(i int, t float64) error {
	if !(t >= 0 && t < 1) {
		return fmt.Errorf("core: threshold t[%d]=%v outside [0,1)", i, t)
	}
	return nil
}

// NewHomogeneous builds an instance of n atomic tasks sharing the threshold
// t. The instance stores (n, t) only: nothing n-sized is allocated until
// Thresholds or MarshalJSON writes the slice out.
func NewHomogeneous(bins BinSet, n int, t float64) (*Instance, error) {
	if n < 0 {
		return nil, fmt.Errorf("core: negative task count %d", n)
	}
	if err := checkMenu(bins, n); err != nil {
		return nil, err
	}
	if n == 0 {
		return &Instance{bins: bins}, nil
	}
	if err := checkThreshold(0, t); err != nil {
		return nil, err
	}
	return &Instance{bins: bins, n: n, lo: t, hi: t}, nil
}

// NewHeterogeneous builds an instance with one threshold per atomic task.
// The thresholds slice is copied.
func NewHeterogeneous(bins BinSet, thresholds []float64) (*Instance, error) {
	if err := checkMenu(bins, len(thresholds)); err != nil {
		return nil, err
	}
	in := &Instance{bins: bins, n: len(thresholds), thresholds: make([]float64, len(thresholds))}
	copy(in.thresholds, thresholds)
	for i, t := range in.thresholds {
		if err := checkThreshold(i, t); err != nil {
			return nil, err
		}
		if i == 0 || t < in.lo {
			in.lo = t
		}
		if i == 0 || t > in.hi {
			in.hi = t
		}
	}
	return in, nil
}

// MustHomogeneous is NewHomogeneous that panics on error.
func MustHomogeneous(bins BinSet, n int, t float64) *Instance {
	in, err := NewHomogeneous(bins, n, t)
	if err != nil {
		panic(err)
	}
	return in
}

// MustHeterogeneous is NewHeterogeneous that panics on error.
func MustHeterogeneous(bins BinSet, thresholds []float64) *Instance {
	in, err := NewHeterogeneous(bins, thresholds)
	if err != nil {
		panic(err)
	}
	return in
}

// N returns the number of atomic tasks n = |T|.
func (in *Instance) N() int { return in.n }

// Bins returns the bin menu B.
func (in *Instance) Bins() BinSet { return in.bins }

// Threshold returns the reliability threshold t_i of task i; it panics
// when i is outside [0, N()).
func (in *Instance) Threshold(i int) float64 {
	if in.thresholds != nil {
		return in.thresholds[i]
	}
	if i < 0 || i >= in.n {
		panic(fmt.Sprintf("core: task index %d out of range [0,%d)", i, in.n))
	}
	return in.hi
}

// Thresholds returns a copy of all task thresholds.
func (in *Instance) Thresholds() []float64 {
	out := make([]float64, in.n)
	if in.thresholds != nil {
		copy(out, in.thresholds)
		return out
	}
	for i := range out {
		out[i] = in.hi
	}
	return out
}

// Theta returns the transformed demand θ_i = -ln(1 - t_i) of task i.
func (in *Instance) Theta(i int) float64 { return Theta(in.Threshold(i)) }

// Homogeneous reports whether all task thresholds are equal (the
// homogeneous SLADE variant of Section 5).
func (in *Instance) Homogeneous() bool { return in.lo == in.hi }

// MinThreshold returns the smallest task threshold, or 0 for an empty
// instance.
func (in *Instance) MinThreshold() float64 { return in.lo }

// MaxThreshold returns the largest task threshold, or 0 for an empty
// instance.
func (in *Instance) MaxThreshold() float64 { return in.hi }

// Relaxed reports whether the instance satisfies the polynomial-time relaxed
// variant of Section 4.2: every bin's confidence meets the largest task
// threshold, so a single assignment to any bin suffices for any task.
func (in *Instance) Relaxed() bool {
	return in.bins.MinConfidence() >= in.MaxThreshold()
}

// instanceJSON is the wire form of an Instance.
type instanceJSON struct {
	Bins       []TaskBin `json:"bins"`
	Thresholds []float64 `json:"thresholds"`
}

// MarshalJSON encodes the instance as {"bins": [...], "thresholds": [...]}.
func (in *Instance) MarshalJSON() ([]byte, error) {
	return json.Marshal(instanceJSON{Bins: in.bins.Bins(), Thresholds: in.Thresholds()})
}

// UnmarshalJSON decodes and validates the wire form.
func (in *Instance) UnmarshalJSON(data []byte) error {
	var w instanceJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	bs, err := NewBinSet(w.Bins)
	if err != nil {
		return err
	}
	dec, err := NewHeterogeneous(bs, w.Thresholds)
	if err != nil {
		return err
	}
	*in = *dec
	return nil
}
