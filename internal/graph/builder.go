package graph

import "sort"

// FromRawEdges builds a CSR from an undirected edge list: every weight is
// first made an integer by the scale rule (Weights.Scale), each non-loop edge
// becomes two arcs, parallel arcs are merged by summing weights, and each
// adjacency list is sorted by target. The input is not modified. It panics
// on an input the rule refuses (ErrWeight); FromRawEdgesScaled returns the
// refusal instead.
func FromRawEdges(n int64, raw []RawEdge) *CSR {
	g, _, err := FromRawEdgesScaled(n, raw)
	if err != nil {
		panic(err)
	}
	return g
}

// FromRawEdgesScaled is FromRawEdges for edges from outside the program: it
// also returns the scale rule's exponent s, or the rule's ErrWeight.
func FromRawEdgesScaled(n int64, raw []RawEdge) (*CSR, int, error) {
	s, err := ScaleOf(Edges(raw))
	if err != nil {
		return nil, 0, err
	}
	// Expand to directed arcs.
	type arc struct {
		from, to int64
		w        float64
	}
	arcs := make([]arc, 0, 2*len(raw))
	for _, e := range raw {
		e.W = Quantize(e.W, s)
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
	return &CSR{N: n, Index: index, Edges: edges}, s, nil
}
