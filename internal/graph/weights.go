package graph

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// ErrWeight marks an input without an exact integer form: a weight that is
// not finite and ≥ 0, or weights whose total no scale 2^s, s ≥ 0, brings
// under the bound the scale rule keeps (Weights.Scale).
var ErrWeight = errors.New("graph: weights have no exact integer form")

// ValidWeight reports whether w is finite and ≥ 0 (false for NaN).
func ValidWeight(w float64) bool { return w >= 0 && w <= math.MaxFloat64 }

// Weights is what the scale rule reads of an input: per-arc sums and a
// maximum, an undirected edge counted as graph.CSR stores it (a self loop
// once, any other edge at both ends). Each field is exact while it stays
// below 2⁵³ — and a float sum of non-negative integers is at or past 2⁵³
// exactly when the true one is — so the rule decides the same on every
// order and every split of the arcs, at any rank count.
type Weights struct {
	Arcs       float64 // arcs counted
	Sum        float64 // Σ w
	CeilSum    float64 // Σ ⌈w⌉
	Max        float64 // the largest w
	Fractional float64 // arcs whose weight is not an integer
	Invalid    float64 // arcs whose weight is not finite and ≥ 0
}

// Add counts n arcs of weight w.
func (f *Weights) Add(w, n float64) {
	if !ValidWeight(w) {
		f.Invalid += n
		return
	}
	c := math.Ceil(w)
	f.Arcs += n
	f.Sum += n * w
	f.CeilSum += n * c
	f.Max = max(f.Max, w)
	if c != w {
		f.Fractional += n
	}
}

// AddEdge counts the arcs of one undirected edge.
func (f *Weights) AddEdge(e RawEdge) {
	if e.U == e.V {
		f.Add(e.W, 1)
	} else {
		f.Add(e.W, 2)
	}
}

// Scale is the one rule that makes every weight an integer: it returns the
// exponent s by which the input's weights are scaled, each then rounded to
// nearest (Quantize). Integer weights whose sum 2m is below 2⁵³ keep their
// values: s = 0. Any other input takes the largest s ≥ 0 at which an upper
// bound of the scaled 2m, min(2^s·Σ⌈w⌉, arcs·⌈2^s·max w⌉), is at most 2⁵²;
// rounding adds at most ½ per arc, so the scaled 2m stays below 2⁵³. Every
// later sum of weights — a degree, an A_c, 2m — is then an exact integer. An
// input that no such s fits fails with ErrWeight. Q and every ΔQ comparison
// are invariant under a uniform scale, so s changes a result only through
// the rounding.
func (f Weights) Scale() (int, error) {
	switch {
	case f.Invalid > 0:
		return 0, fmt.Errorf("%w: %g arcs weigh NaN, an infinity or less than 0", ErrWeight, f.Invalid)
	case f.Fractional == 0 && f.Sum < 1<<53:
		return 0, nil
	}
	s := -1
	if f.CeilSum >= 1 && f.CeilSum <= 1<<52 {
		s = 52 - bits.Len64(uint64(f.CeilSum)-1) // 2^s·Σ⌈w⌉ ≤ 2⁵²
	}
	if f.Max > 0 && f.Arcs <= 1<<52 {
		// arcs·⌈2^s·max⌉ ≤ 2⁵² ⇔ 2^s·max ≤ ⌊2⁵²/arcs⌋ = l, an integer.
		l := uint64(1<<52) / uint64(f.Arcs)
		_, e := math.Frexp(f.Max)
		t := bits.Len64(l) - e
		if math.Ldexp(f.Max, t) > float64(l) {
			t--
		}
		s = max(s, t)
	}
	if s < 0 {
		return 0, fmt.Errorf("%w: %g arcs of at most %g, Σ⌈w⌉ = %g: no scale 2^s, s ≥ 0, brings 2m to 2⁵² or below",
			ErrWeight, f.Arcs, f.Max, f.CeilSum)
	}
	return s, nil
}

// Quantize is w scaled by 2^s and rounded to the nearest integer: the weight
// an input edge of weight w carries under Scale's exponent s.
func Quantize(w float64, s int) float64 { return math.Round(math.Ldexp(w, s)) }

// ScaleOf runs Scale over an edge stream.
func ScaleOf(edges EdgeStream) (int, error) {
	var f Weights
	err := edges(func(chunk []RawEdge) error {
		for _, e := range chunk {
			f.AddEdge(e)
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return f.Scale()
}
