package seq

import (
	"testing"

	"distlouvain/internal/gen"
	"distlouvain/internal/graph"
)

// Ablation: flat-array vs hash-map accumulation of neighbour-community
// weights in the ΔQ scan (DESIGN.md §6). The flat array with timestamp
// invalidation is the production choice; the map is the naive alternative.

// mapMoveVertex is the map-based variant of moveVertex, kept only for this
// ablation.
func mapMoveVertex(g *graph.CSR, v int64, comm []int64, k, aTot []float64, m2 float64, scratch map[int64]float64) bool {
	cv := comm[v]
	clear(scratch)
	for _, e := range g.Neighbors(v) {
		if e.To == v {
			continue
		}
		scratch[comm[e.To]] += e.W
	}
	eCur := scratch[cv]
	best := cv
	bestGain := 0.0
	kv := k[v]
	aCur := aTot[cv] - kv
	for c, evc := range scratch {
		if c == cv {
			continue
		}
		gain := Gain(m2, evc-eCur, kv, aTot[c]-aCur)
		if gain > bestGain || (gain == bestGain && gain > 0 && c < best) {
			bestGain = gain
			best = c
		}
	}
	if best != cv && bestGain > 0 {
		aTot[cv] -= kv
		aTot[best] += kv
		comm[v] = best
		return true
	}
	return false
}

func benchSweepInput() (*graph.CSR, []int64, []float64, []float64, float64) {
	n, edges, _, err := gen.LFR(gen.DefaultLFR(5000, 0.3, 5))
	if err != nil {
		panic(err)
	}
	g := gen.Build(n, edges)
	comm := make([]int64, n)
	k := make([]float64, n)
	aTot := make([]float64, n)
	for v := int64(0); v < n; v++ {
		comm[v] = v
		k[v] = g.WeightedDegree(v)
		aTot[v] = k[v]
	}
	return g, comm, k, aTot, g.TotalWeight()
}

func BenchmarkAblation_ScanFlatArray(b *testing.B) {
	g, comm, k, aTot, m2 := benchSweepInput()
	selfLoop := make([]float64, g.N)
	scratch := newNeighMap(g.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for v := int64(0); v < g.N; v++ {
			moveVertex(g, v, comm, k, aTot, selfLoop, m2, scratch)
		}
	}
}

func BenchmarkAblation_ScanHashMap(b *testing.B) {
	g, comm, k, aTot, m2 := benchSweepInput()
	scratch := make(map[int64]float64, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for v := int64(0); v < g.N; v++ {
			mapMoveVertex(g, v, comm, k, aTot, m2, scratch)
		}
	}
}

// BenchmarkSerialLouvain tracks the reference implementation end to end.
func BenchmarkSerialLouvain(b *testing.B) {
	n, edges, _, err := gen.LFR(gen.DefaultLFR(5000, 0.3, 5))
	if err != nil {
		b.Fatal(err)
	}
	g := gen.Build(n, edges)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(g, Options{})
	}
}

// BenchmarkCertify tracks the certificate: one pass, Q, pieces.
func BenchmarkCertify(b *testing.B) {
	n, edges, truth := gen.PlantedPartition(20, 100, 0.3, 0.005, 7)
	g := gen.Build(n, edges)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Certify(g.N, g.Stream(), truth); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoarsen tracks the serial coarsening step.
func BenchmarkCoarsen(b *testing.B) {
	n, edges, truth := gen.PlantedPartition(20, 100, 0.3, 0.005, 7)
	g := gen.Build(n, edges)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Coarsen(g, truth)
	}
}
