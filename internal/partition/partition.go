// Package partition implements the 1-D decomposition of the vertex (and
// community) ID space across ranks. The paper loads its input so that "each
// process receives roughly the same number of edges; no clever graph
// partitioning is performed", and redistributes each rebuilt graph "so that
// every process owns an equal number of vertices". Only the vertex-balanced
// split is provided (ByVertexCount), for the input and every rebuilt graph
// alike: results do not depend on the cut points (DESIGN §2).
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
