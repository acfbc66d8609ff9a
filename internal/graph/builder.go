package graph

import (
	"fmt"
	"sort"
)

// Builder accumulates undirected edges and produces a CSR. Parallel edges
// are merged by summing weights; each non-loop edge is symmetrized into two
// arcs. The builder is not safe for concurrent use.
type Builder struct {
	n     int64
	edges []RawEdge
}

// NewBuilder creates a builder for a graph on n vertices.
func NewBuilder(n int64) *Builder {
	return &Builder{n: n}
}

// AddEdge records the undirected edge {u,v} with weight w. Self loops are
// allowed. Weight must be non-negative.
func (b *Builder) AddEdge(u, v int64, w float64) error {
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n)
	}
	if w < 0 {
		return fmt.Errorf("graph: edge (%d,%d) has negative weight %g", u, v, w)
	}
	b.edges = append(b.edges, RawEdge{U: u, V: v, W: w})
	return nil
}

// AddAll records a batch of edges.
func (b *Builder) AddAll(edges []RawEdge) error {
	for _, e := range edges {
		if err := b.AddEdge(e.U, e.V, e.W); err != nil {
			return err
		}
	}
	return nil
}

// NumPending returns the number of raw edges recorded so far.
func (b *Builder) NumPending() int { return len(b.edges) }

// Build produces the CSR: arcs are symmetrized, parallel arcs merged, and
// each adjacency list sorted by target. The builder may be reused afterwards
// (it keeps its edges).
func (b *Builder) Build() *CSR {
	return FromRawEdges(b.n, b.edges)
}

// FromRawEdges builds a CSR directly from an undirected edge list,
// symmetrizing and merging parallel edges. Inputs are not modified.
func FromRawEdges(n int64, raw []RawEdge) *CSR {
	// Expand to directed arcs.
	type arc struct {
		from, to int64
		w        float64
	}
	arcs := make([]arc, 0, 2*len(raw))
	for _, e := range raw {
		if e.U == e.V {
			arcs = append(arcs, arc{e.U, e.V, e.W})
		} else {
			arcs = append(arcs, arc{e.U, e.V, e.W}, arc{e.V, e.U, e.W})
		}
	}
	sort.Slice(arcs, func(i, j int) bool {
		if arcs[i].from != arcs[j].from {
			return arcs[i].from < arcs[j].from
		}
		return arcs[i].to < arcs[j].to
	})
	// Merge parallel arcs and count per-vertex degrees.
	index := make([]int64, n+1)
	edges := make([]Edge, 0, len(arcs))
	for i := 0; i < len(arcs); {
		j := i + 1
		w := arcs[i].w
		for j < len(arcs) && arcs[j].from == arcs[i].from && arcs[j].to == arcs[i].to {
			w += arcs[j].w
			j++
		}
		edges = append(edges, Edge{To: arcs[i].to, W: w})
		index[arcs[i].from+1]++
		i = j
	}
	for v := int64(0); v < n; v++ {
		index[v+1] += index[v]
	}
	return &CSR{N: n, Index: index, Edges: edges}
}
