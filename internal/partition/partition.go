// Package partition implements the 1-D decomposition of the vertex (and
// community) ID space across ranks. The paper distributes vertices and
// their edge lists so that "each process receives roughly the same number
// of edges; no clever graph partitioning is performed" — both the
// vertex-balanced and the edge-balanced variants are provided (the latter is
// what the paper uses for input loading, the former for rebuilt graphs,
// whose step 6 redistributes "so that every process owns an equal number of
// vertices").
package partition

import (
	"fmt"
	"sort"
)

// Partition maps the contiguous vertex range [0, N) onto p ranks. Rank r
// owns [Bounds[r], Bounds[r+1]).
type Partition struct {
	Bounds []int64 // length p+1, Bounds[0]=0, Bounds[p]=N
}

// Size returns the number of ranks.
func (pt *Partition) Size() int { return len(pt.Bounds) - 1 }

// N returns the number of vertices.
func (pt *Partition) N() int64 { return pt.Bounds[pt.Size()] }

// Range returns rank's owned interval [lo, hi).
func (pt *Partition) Range(rank int) (lo, hi int64) {
	return pt.Bounds[rank], pt.Bounds[rank+1]
}

// Count returns the number of vertices rank owns.
func (pt *Partition) Count(rank int) int64 {
	return pt.Bounds[rank+1] - pt.Bounds[rank]
}

// Owner returns the rank owning global vertex v.
func (pt *Partition) Owner(v int64) int {
	if v < 0 || v >= pt.N() {
		panic(fmt.Sprintf("partition: vertex %d out of range [0,%d)", v, pt.N()))
	}
	// Binary search for the last bound <= v.
	r := sort.Search(pt.Size(), func(i int) bool { return pt.Bounds[i+1] > v })
	return r
}

// Owns reports whether rank owns v.
func (pt *Partition) Owns(rank int, v int64) bool {
	return v >= pt.Bounds[rank] && v < pt.Bounds[rank+1]
}

// ToLocal converts a global vertex owned by rank to its local index.
func (pt *Partition) ToLocal(rank int, v int64) int64 {
	return v - pt.Bounds[rank]
}

// Validate checks structural sanity.
func (pt *Partition) Validate() error {
	if len(pt.Bounds) < 2 {
		return fmt.Errorf("partition: need at least 2 bounds, have %d", len(pt.Bounds))
	}
	if pt.Bounds[0] != 0 {
		return fmt.Errorf("partition: bounds[0] = %d, want 0", pt.Bounds[0])
	}
	for i := 1; i < len(pt.Bounds); i++ {
		if pt.Bounds[i] < pt.Bounds[i-1] {
			return fmt.Errorf("partition: bounds not monotone at %d", i)
		}
	}
	return nil
}

// ByVertexCount splits [0, n) into p near-equal ranges; the first n%p ranks
// receive one extra vertex.
func ByVertexCount(n int64, p int) *Partition {
	if p <= 0 {
		panic("partition: non-positive rank count")
	}
	bounds := make([]int64, p+1)
	per := n / int64(p)
	rem := n % int64(p)
	for r := 0; r < p; r++ {
		extra := int64(0)
		if int64(r) < rem {
			extra = 1
		}
		bounds[r+1] = bounds[r] + per + extra
	}
	return &Partition{Bounds: bounds}
}

// ByEdgeCount splits [0, n) so each rank holds roughly the same number of
// adjacency slots, given per-vertex degrees. Contiguity is preserved (1-D),
// so ranks sweep dense ID ranges; a vertex is never split.
func ByEdgeCount(degrees []int64, p int) *Partition {
	n := int64(len(degrees))
	if p <= 0 {
		panic("partition: non-positive rank count")
	}
	var total int64
	for _, d := range degrees {
		total += d
	}
	bounds := make([]int64, p+1)
	target := func(r int) int64 {
		// Ideal cumulative slot count after rank r's range.
		return (total * int64(r+1)) / int64(p)
	}
	var cum int64
	v := int64(0)
	for r := 0; r < p; r++ {
		want := target(r)
		for v < n && (cum < want || r == p-1) {
			cum += degrees[v]
			v++
		}
		bounds[r+1] = v
	}
	bounds[p] = n
	return &Partition{Bounds: bounds}
}
