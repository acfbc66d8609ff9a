// Package graph provides the in-memory graph representations used across
// the repository: weighted edge lists and the compressed sparse row (CSR)
// structure the Louvain sweeps iterate over, together with builders,
// validators and summary statistics.
//
// Conventions (shared with the distributed code):
//
//   - Graphs are undirected but stored symmetrically: an undirected edge
//     {u,v} with weight w appears as two directed slots u→v and v→u, each
//     with weight w. A self loop {v,v} is stored once with its full weight.
//   - The weighted degree k(v) is the sum of the weights of v's stored
//     slots (a self loop therefore contributes its weight once to k(v)).
//   - m2 = Σ_v k(v) is the doubled total edge weight ("2m" of the paper's
//     Equation 1); all modularity arithmetic uses m2.
//
// These conventions make modularity exactly invariant under the coarsening
// step: a coarse self loop accumulates the doubled intra-community weight
// and coarse degrees sum the member degrees.
package graph

import (
	"fmt"
	"math"
)

// Edge is one CSR adjacency slot: a target vertex and the edge weight.
type Edge struct {
	To int64
	W  float64
}

// RawEdge is one undirected input edge.
type RawEdge struct {
	U, V int64
	W    float64
}

// CSR is a compressed-sparse-row adjacency structure over vertices
// [0, N). Index has length N+1; the neighbours of v occupy
// Edges[Index[v]:Index[v+1]].
type CSR struct {
	N     int64
	Index []int64
	Edges []Edge
}

// NumArcs returns the number of stored directed slots (≈ 2× undirected
// edges plus self loops).
func (g *CSR) NumArcs() int64 { return int64(len(g.Edges)) }

// Neighbors returns the adjacency slice of v. The slice aliases the CSR and
// must not be modified.
func (g *CSR) Neighbors(v int64) []Edge {
	return g.Edges[g.Index[v]:g.Index[v+1]]
}

// Degree returns the number of adjacency slots of v.
func (g *CSR) Degree(v int64) int64 {
	return g.Index[v+1] - g.Index[v]
}

// WeightedDegree returns k(v): the sum of the weights of v's slots.
func (g *CSR) WeightedDegree(v int64) float64 {
	var k float64
	for _, e := range g.Neighbors(v) {
		k += e.W
	}
	return k
}

// SelfLoopWeight returns the weight of v's self loop (0 when absent).
func (g *CSR) SelfLoopWeight(v int64) float64 {
	var w float64
	for _, e := range g.Neighbors(v) {
		if e.To == v {
			w += e.W
		}
	}
	return w
}

// TotalWeight returns m2 = Σ_v k(v), the doubled total edge weight.
func (g *CSR) TotalWeight() float64 {
	var m2 float64
	for _, e := range g.Edges {
		m2 += e.W
	}
	return m2
}

// Validate checks structural invariants: monotone index, in-range targets,
// non-negative weights, and (optionally expensive) symmetry of the stored
// arcs. It returns the first violation found.
func (g *CSR) Validate(checkSymmetry bool) error {
	if int64(len(g.Index)) != g.N+1 {
		return fmt.Errorf("graph: index length %d, want N+1=%d", len(g.Index), g.N+1)
	}
	if g.Index[0] != 0 {
		return fmt.Errorf("graph: index[0] = %d, want 0", g.Index[0])
	}
	for v := int64(0); v < g.N; v++ {
		if g.Index[v+1] < g.Index[v] {
			return fmt.Errorf("graph: index not monotone at vertex %d", v)
		}
	}
	if g.Index[g.N] != int64(len(g.Edges)) {
		return fmt.Errorf("graph: index[N] = %d, want %d", g.Index[g.N], len(g.Edges))
	}
	for i, e := range g.Edges {
		if e.To < 0 || e.To >= g.N {
			return fmt.Errorf("graph: edge slot %d targets out-of-range vertex %d", i, e.To)
		}
		if e.W < 0 {
			return fmt.Errorf("graph: edge slot %d has negative weight %g", i, e.W)
		}
	}
	if checkSymmetry {
		return g.validateSymmetry()
	}
	return nil
}

func (g *CSR) validateSymmetry() error {
	// Sum of weights u→v must equal v→u for every pair. Aggregate per
	// unordered pair through a map keyed on (min,max). The comparison is
	// tolerant: merged parallel edges may have been summed in different
	// orders for the two directions.
	type pair struct{ a, b int64 }
	acc := make(map[pair][2]float64)
	for u := int64(0); u < g.N; u++ {
		for _, e := range g.Neighbors(u) {
			if e.To == u {
				continue // self loops are stored once
			}
			if u < e.To {
				k := pair{u, e.To}
				v := acc[k]
				v[0] += e.W
				acc[k] = v
			} else {
				k := pair{e.To, u}
				v := acc[k]
				v[1] += e.W
				acc[k] = v
			}
		}
	}
	for p, w := range acc {
		diff := math.Abs(w[0] - w[1])
		scale := math.Max(1, math.Max(math.Abs(w[0]), math.Abs(w[1])))
		if diff > 1e-9*scale {
			return fmt.Errorf("graph: asymmetric weight between %d and %d (%g vs %g)", p.a, p.b, w[0], w[1])
		}
	}
	return nil
}

// Clone returns a deep copy of g.
func (g *CSR) Clone() *CSR {
	idx := make([]int64, len(g.Index))
	copy(idx, g.Index)
	edges := make([]Edge, len(g.Edges))
	copy(edges, g.Edges)
	return &CSR{N: g.N, Index: idx, Edges: edges}
}

// UndirectedEdges converts the CSR back to a deduplicated undirected edge
// list (u <= v), halving no weights: the weight reported for {u,v} is the
// stored weight of the u→v arc. Useful for round-trip tests and I/O.
func (g *CSR) UndirectedEdges() []RawEdge {
	var out []RawEdge
	for u := int64(0); u < g.N; u++ {
		for _, e := range g.Neighbors(u) {
			if u <= e.To {
				out = append(out, RawEdge{U: u, V: e.To, W: e.W})
			}
		}
	}
	return out
}
