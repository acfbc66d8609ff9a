package shared

import (
	"distlouvain/internal/graph"
)

// FollowVertices computes the vertex following of Grappolo: every degree-1
// vertex is assigned its sole neighbour, and Run merges it into that neighbour
// before the first phase, which removes trivially decided vertices from the
// first (and most expensive) phase.
//
// For an isolated degree-1 pair {u,v} (each other's sole neighbour), both
// join min(u,v) so the pair agrees on one label. Vertices whose only slot
// is a self loop stay put.
func FollowVertices(g *graph.CSR) []int64 {
	n := g.N
	comm := make([]int64, n)
	for v := range comm {
		comm[v] = int64(v)
	}
	soleNeighbor := func(v int64) (int64, bool) {
		nbrs := g.Neighbors(v)
		if len(nbrs) != 1 || nbrs[0].To == v {
			return 0, false
		}
		return nbrs[0].To, true
	}
	for v := int64(0); v < n; v++ {
		u, ok := soleNeighbor(v)
		if !ok {
			continue
		}
		if w, ok := soleNeighbor(u); ok && w == v {
			// Isolated pair: anchor at the smaller ID for determinism.
			if u > v {
				u = v
			}
		}
		comm[v] = u
	}
	return comm
}
