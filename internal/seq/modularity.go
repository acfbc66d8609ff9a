// Package seq implements the serial Louvain method (Algorithm 1 of the
// paper) together with exact modularity evaluation and serial graph
// coarsening. It is the correctness reference for the shared-memory and
// distributed implementations: they may legally converge to different local
// optima, but every intermediate quantity they report (modularity of a given
// assignment, coarsened graph weights) must agree with this package.
package seq

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"distlouvain/internal/graph"
)

// ErrLabels marks what Certify refuses: not one label per vertex, a label
// outside [0, n), or an edge outside [0, n).
var ErrLabels = errors.New("seq: labels do not label the graph")

// ErrMismatch marks a result that disagrees with its certificate.
var ErrMismatch = errors.New("seq: result disagrees with its certificate")

// Certificate is what Certify establishes about a labelling of a graph.
type Certificate struct {
	// Q is Newman's modularity (Equation 2 of the paper) of the labels.
	Q float64 `json:"q"`
	// Scale is the exponent s of the scale rule (graph.Weights.Scale): Q is
	// that of the weights scaled by 2^s and rounded to integers. s = 0 means
	// no scaling, the weights rounded only if they were not integers. Then 2m, Σ E_c and Σ A_c² are exact integers, and
	// Q is the one value ModularityOf forms from them, whatever their order.
	Scale int `json:"scale"`
	// Communities counts the distinct labels; Dense: they are 0 … Communities−1.
	Communities int64 `json:"communities"`
	Dense       bool  `json:"dense"`
	// Disconnected counts the communities whose intra-community edges leave
	// them in more than one piece (a singleton is one). Louvain does not rule
	// them out (Traag, Waltman and van Eck, arXiv 1810.08473).
	Disconnected int64 `json:"disconnected"`
}

// Certify computes the certificate of labels over the graph with n vertices
// whose undirected edges the stream yields, in O(n) memory: one pass over
// integer weights, a second, scaled one over any others. Edges count as
// graph.CSR stores them: a self loop once, any other edge at both ends,
// parallel edges summed, each weight made an integer by the scale rule as
// dgraph.Build makes it (an input the rule refuses fails with
// graph.ErrWeight). Q is ModularityOf the exact sums, so it is the Q that
// core forms for the same labels, and 0 on a graph without weight.
func Certify(n int64, edges graph.EdgeStream, labels []int64) (Certificate, error) {
	if int64(len(labels)) != n {
		return Certificate{}, fmt.Errorf("%w: %d labels for %d vertices", ErrLabels, len(labels), n)
	}
	for v, c := range labels {
		if c < 0 || c >= n {
			return Certificate{}, fmt.Errorf("%w: vertex %d has label %d outside [0,%d)", ErrLabels, v, c, n)
		}
	}
	a := make([]float64, n) // A_c; then each community's pieces
	parent := make([]int64, n)
	for v := range parent {
		parent[v] = int64(v)
	}
	find := func(v int64) int64 {
		for parent[v] != v {
			parent[v] = parent[parent[v]]
			v = parent[v]
		}
		return v
	}
	var f graph.Weights
	var e, m2 float64
	// sums adds the stream's weights into a, e and m2, each scaled by 2^s;
	// the first pass (weigh) also reads the scale rule's facts and joins
	// the communities' pieces.
	sums := func(s int, weigh bool) error {
		return edges(func(chunk []graph.RawEdge) error {
			for _, ed := range chunk {
				if ed.U < 0 || ed.U >= n || ed.V < 0 || ed.V >= n {
					return fmt.Errorf("%w: edge (%d,%d) outside [0,%d)", ErrLabels, ed.U, ed.V, n)
				}
				w := ed.W
				if weigh {
					f.AddEdge(ed)
				} else {
					w = graph.Quantize(w, s)
				}
				cu, cv, k := labels[ed.U], labels[ed.V], w
				a[cu] += w
				if ed.U != ed.V {
					a[cv] += w
					k *= 2
				}
				m2 += k
				if cu == cv {
					e += k
					if weigh {
						ru, rv := find(ed.U), find(ed.V)
						parent[max(ru, rv)] = min(ru, rv)
					}
				}
			}
			return nil
		})
	}
	if err := sums(0, true); err != nil {
		return Certificate{}, err
	}
	var c Certificate
	var err error
	if c.Scale, err = f.Scale(); err != nil {
		return Certificate{}, err
	}
	if f.Fractional > 0 {
		clear(a)
		e, m2 = 0, 0
		if err := sums(c.Scale, false); err != nil {
			return Certificate{}, err
		}
	}

	var aSq SquareSum
	for _, ac := range a {
		aSq.Add(ac)
	}
	c.Q = ModularityOf(e, m2, aSq)

	clear(a)
	for v := range parent {
		if find(int64(v)) == int64(v) {
			a[labels[v]]++
		}
	}
	top := int64(-1)
	for label, pieces := range a {
		if pieces > 0 {
			c.Communities++
			top = int64(label)
		}
		if pieces > 1 {
			c.Disconnected++
		}
	}
	c.Dense = c.Communities == top+1
	return c, nil
}

// Modularity is the Q of comm's certificate over g. It panics on labels
// Certify refuses.
func Modularity(g *graph.CSR, comm []int64) float64 {
	c, err := Certify(g.N, g.Stream(), comm)
	if err != nil {
		panic(err)
	}
	return c.Q
}

// Check certifies labels over the stream's graph and holds a reported
// result to the certificate: dense labels, as many communities, and the same
// Q bit for bit. It is the one way a result is checked; the error wraps
// ErrLabels or graph.ErrWeight, or ErrMismatch naming both values.
func Check(n int64, edges graph.EdgeStream, labels []int64, q float64, communities int64) (Certificate, error) {
	c, err := Certify(n, edges, labels)
	switch {
	case err != nil:
	case !c.Dense:
		err = fmt.Errorf("%w: the %d labels in use are not 0…%d", ErrMismatch, c.Communities, c.Communities-1)
	case communities != c.Communities:
		err = fmt.Errorf("%w: reported %d communities, the labels hold %d", ErrMismatch, communities, c.Communities)
	case math.Float64bits(q) != math.Float64bits(c.Q):
		err = fmt.Errorf("%w: reported Q %.17g, certified Q %.17g", ErrMismatch, q, c.Q)
	}
	return c, err
}

// ModularityOf is Q = E/m2 − ΣA²/m2², formed from the exact sums of integer
// weights: E the intra-community weight, m2 = 2m, aSq Σ_c A_c². Every Q this
// repository reports — core's per iteration and final, Certify's — is this
// expression of exact integers, so it does not depend on the order, or the
// ranks, the sums were taken in. It is 0 on a graph without weight.
func ModularityOf(e, m2 float64, aSq SquareSum) float64 {
	if m2 == 0 {
		return 0
	}
	return e/m2 - aSq.Float64()/(m2*m2)
}

// SquareSum is Σ a² over integers 0 ≤ a < 2⁵³, exact in 128 bits: with
// 2m < 2⁵³, Σ_c A_c² ≤ (2m)² < 2¹⁰⁶.
type SquareSum struct{ hi, lo uint64 }

// Add adds a², a an integer in [0, 2⁵³).
func (s *SquareSum) Add(a float64) {
	hi, lo := bits.Mul64(uint64(a), uint64(a))
	s.add(hi, lo)
}

func (s *SquareSum) add(hi, lo uint64) {
	var carry uint64
	s.lo, carry = bits.Add64(s.lo, lo, 0)
	s.hi += hi + carry
}

// A sum crosses ranks as SquareLimbs float limbs of limbBits bits each, low
// first. A float allreduce sums them exactly: the totals stay below 2⁵³ for
// up to 2⁵³⁻³⁶ = 131 072 ranks, and three limbs hold 108 bits.
const (
	SquareLimbs = 3
	limbBits    = 36
)

// Limbs writes s into dst's SquareLimbs limbs.
func (s SquareSum) Limbs(dst []float64) {
	const mask = 1<<limbBits - 1
	dst[0] = float64(s.lo & mask)
	dst[1] = float64((s.lo>>limbBits | s.hi<<(64-limbBits)) & mask)
	dst[2] = float64(s.hi >> (2*limbBits - 64))
}

// SquareSumOfLimbs is the sum whose limbs, each an integer below 2⁵³, are
// limbs: what an allreduce of every rank's Limbs adds up to.
func SquareSumOfLimbs(limbs []float64) SquareSum {
	var s SquareSum
	for i, l := range limbs[:SquareLimbs] {
		v, k := uint64(l), uint(i*limbBits)
		if k < 64 {
			s.add(v>>(64-k), v<<k) // v>>64 is 0
		} else {
			s.add(v<<(k-64), 0)
		}
	}
	return s
}

// Float64 is s rounded to the nearest float64 (ties to even).
func (s SquareSum) Float64() float64 {
	if s.hi == 0 {
		return float64(s.lo)
	}
	// The top 64 bits, with every bit below them folded into the lowest one:
	// it lies below the rounding position, so it breaks ties as they would.
	l := bits.Len64(s.hi)
	top := s.hi<<(64-l) | s.lo>>l
	if s.lo<<(64-l) != 0 {
		top |= 1
	}
	return math.Ldexp(float64(top), l)
}
