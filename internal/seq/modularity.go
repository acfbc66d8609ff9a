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
	// Exact: every weight is an integer and Σ_c A_c² < 2⁵³. Then 2m, Σ E_c
	// and Σ A_c² are exact integers below 2⁵³ (A² ≥ A for integers), and Q
	// is the one rounding of E/2m − ΣA²/(2m)² that any exact sum gives.
	Exact bool `json:"exact"`
	// Communities counts the distinct labels; Dense: they are 0 … Communities−1.
	Communities int64 `json:"communities"`
	Dense       bool  `json:"dense"`
	// Disconnected counts the communities whose intra-community edges leave
	// them in more than one piece (a singleton is one). Louvain does not rule
	// them out (Traag, Waltman and van Eck, arXiv 1810.08473).
	Disconnected int64 `json:"disconnected"`
}

// Certify computes the certificate of labels over the graph with n vertices
// whose undirected edges the stream yields, in one pass and O(n) memory.
// Edges count as graph.CSR stores them: a self loop once, any other edge at
// both ends, parallel edges summed. Σ A_c² is a float sum in label order,
// exact under the condition Exact names. Q is formed as E/m2 −
// ΣA²/(m2·m2), the expression core forms its final Q with, and is 0 on a
// graph without weight.
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
	var e, m2 float64
	integer := true
	err := edges(func(chunk []graph.RawEdge) error {
		for _, ed := range chunk {
			if ed.U < 0 || ed.U >= n || ed.V < 0 || ed.V >= n {
				return fmt.Errorf("%w: edge (%d,%d) outside [0,%d)", ErrLabels, ed.U, ed.V, n)
			}
			integer = integer && ed.W >= 0 && ed.W == math.Trunc(ed.W)
			cu, cv, k := labels[ed.U], labels[ed.V], ed.W
			a[cu] += ed.W
			if ed.U != ed.V {
				a[cv] += ed.W
				k *= 2
			}
			m2 += k
			if cu == cv {
				e += k
				ru, rv := find(ed.U), find(ed.V)
				parent[max(ru, rv)] = min(ru, rv)
			}
		}
		return nil
	})
	if err != nil {
		return Certificate{}, err
	}

	var c Certificate
	var aSq float64
	for _, ac := range a {
		aSq += ac * ac
	}
	// On integer weights every A_c is an integer below 2⁵³ and rounding is
	// monotone, so the float sum is below 2⁵³ exactly when the true one is,
	// and then every square and partial sum is exact.
	c.Exact = integer && m2 < 1<<53 && aSq < 1<<53
	if m2 != 0 {
		c.Q = e/m2 - aSq/(m2*m2)
	}

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
// Q — bit for bit when Exact, to 10⁻⁹ otherwise. It is the one way a result
// is checked; the error wraps ErrLabels, or ErrMismatch naming both values.
func Check(n int64, edges graph.EdgeStream, labels []int64, q float64, communities int64) (Certificate, error) {
	c, err := Certify(n, edges, labels)
	switch {
	case err != nil:
	case !c.Dense:
		err = fmt.Errorf("%w: the %d labels in use are not 0…%d", ErrMismatch, c.Communities, c.Communities-1)
	case communities != c.Communities:
		err = fmt.Errorf("%w: reported %d communities, the labels hold %d", ErrMismatch, communities, c.Communities)
	case c.Exact && math.Float64bits(q) != math.Float64bits(c.Q), !c.Exact && !(math.Abs(q-c.Q) <= 1e-9):
		err = fmt.Errorf("%w: reported Q %.17g, certified Q %.17g", ErrMismatch, q, c.Q)
	}
	return c, err
}
