// Package seq implements the serial Louvain method (Algorithm 1 of the
// paper) together with exact modularity evaluation and serial graph
// coarsening. It is the correctness reference for the shared-memory and
// distributed implementations: they may legally converge to different local
// optima, but every intermediate quantity they report (modularity of a given
// assignment, coarsened graph weights) must agree with this package.
package seq

import (
	"fmt"
	"sort"

	"distlouvain/internal/graph"
)

// Modularity computes Newman's modularity (Equation 2 of the paper) of the
// community assignment comm over g: Q = Σ_c [E_c/m2 − (A_c/m2)²], where E_c
// is the total weight of stored arcs internal to c (self loops counted
// once), A_c the summed weighted degree of c's members, and m2 the doubled
// total edge weight.
func Modularity(g *graph.CSR, comm []int64) float64 {
	if int64(len(comm)) != g.N {
		panic(fmt.Sprintf("seq: comm length %d != N %d", len(comm), g.N))
	}
	m2 := g.TotalWeight()
	if m2 == 0 {
		return 0
	}
	eIn := make(map[int64]float64)  // E_c
	aTot := make(map[int64]float64) // A_c
	for v := int64(0); v < g.N; v++ {
		cv := comm[v]
		for _, e := range g.Neighbors(v) {
			aTot[cv] += e.W
			if comm[e.To] == cv {
				eIn[cv] += e.W
			}
		}
	}
	// Sum in sorted label order so the result is bit-deterministic (map
	// iteration order would otherwise vary the float rounding run to run).
	labels := make([]int64, 0, len(aTot))
	for c := range aTot {
		labels = append(labels, c)
	}
	sort.Slice(labels, func(i, j int) bool { return labels[i] < labels[j] })
	var q float64
	for _, c := range labels {
		a := aTot[c]
		q += eIn[c]/m2 - (a/m2)*(a/m2)
	}
	return q
}

// CommunityCount returns the number of distinct community labels in comm.
func CommunityCount(comm []int64) int64 {
	seen := make(map[int64]struct{}, len(comm))
	for _, c := range comm {
		seen[c] = struct{}{}
	}
	return int64(len(seen))
}
