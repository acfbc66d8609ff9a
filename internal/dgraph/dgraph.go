// Package dgraph implements the distributed graph representation of the
// paper's §IV: a 1-D decomposition where each rank owns a contiguous range
// of vertices and stores their adjacency lists in CSR form with *global*
// target IDs, plus a table of ghost vertices (vertices referenced by local
// edges but owned elsewhere).
//
// Construction starts from arbitrarily scattered undirected edge chunks —
// whatever portion of the input file (or generator output) each rank
// happens to hold — and shuffles every directed arc to the rank owning its
// source vertex via one personalized all-to-all exchange, exactly like the
// input-loading step of the paper's implementation.
//
// Build, BuildFromArcs and the coarsening of package core share one
// counting-sort pipeline — a Shuffle on the sending side, assemble on the
// receiving one; DESIGN "graph construction memory layout" has the contract.
// Each rank sends one frame per owner, sized exactly before it is written: a
// layout byte, then fixed-width records of 8 bytes (32-bit source and target)
// when every weight in the frame is 1.0, 16 with the weight, 24 only in a
// vertex space past 2³². Allocations are O(p), whatever the arc count.
//
// Every stored arc also carries a dense slot (DistGraph.Slot): the local
// index of an owned target, LocalN + i for the ghost Ghosts[i]. State kept per
// endpoint — a community, a color — lives in one array of LocalN + len(Ghosts)
// entries and is read as state[Slot[i]]: one load per arc, no ownership branch
// and no hash. There is no global-ID → ghost map; a caller holding only a
// global ID binary-searches the sorted Ghosts (GhostSlot).
package dgraph

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"distlouvain/internal/graph"
	"distlouvain/internal/mpi"
	"distlouvain/internal/partition"
)

// DistGraph is one rank's share of the distributed graph.
type DistGraph struct {
	Comm *mpi.Comm
	Part *partition.Partition

	// GlobalN is the global vertex count; M2 the global doubled edge
	// weight (identical at every rank).
	GlobalN int64
	M2      float64

	// Base is the first owned global vertex; LocalN the number owned.
	// Local vertex lv corresponds to global vertex Base+lv.
	Base   int64
	LocalN int64

	// Index/Edges form the local CSR: neighbours of local vertex lv are
	// Edges[Index[lv]:Index[lv+1]], with global target IDs. Every row is
	// strictly ascending by target (sorted, parallel arcs merged).
	Index []int64
	Edges []graph.Edge

	// Slot is parallel to Edges: Slot[i] is Edges[i].To-Base when this rank
	// owns the target, LocalN+g when the target is Ghosts[g].
	Slot []int32

	// K and SelfLoop cache per-local-vertex weighted degree and self-loop
	// weight.
	K        []float64
	SelfLoop []float64

	// Ghosts lists (sorted) the global IDs of vertices referenced by local
	// edges but owned by other ranks; GhostOwner[i] is the owner of
	// Ghosts[i].
	Ghosts     []int64
	GhostOwner []int
}

// Arc is one directed edge, as BuildFromArcs takes it: arcs that are already
// directed (a checkpoint's CSR) are routed and assembled without the
// undirected expansion Build performs.
type Arc struct {
	From, To int64
	W        float64
}

// ErrMalformedArcs marks an arc frame the assembly refuses: an unknown layout
// byte or one the vertex space does not select, a body that is empty or not a
// whole number of records, a source the receiving rank does not own, or a
// target outside the vertex space.
var ErrMalformedArcs = errors.New("dgraph: malformed arc frame")

// ErrSlotSpace marks a rank whose owned vertices plus ghosts do not fit the
// int32 slot space; such a graph needs more ranks.
var ErrSlotSpace = errors.New("dgraph: local vertices plus ghosts exceed the int32 slot space")

func checkSlotSpace(localN int64, ghosts int) error {
	if localN+int64(ghosts) > math.MaxInt32 {
		return fmt.Errorf("%w: %d owned + %d ghosts", ErrSlotSpace, localN, ghosts)
	}
	return nil
}

// EdgeBalancedPartition computes the paper's input decomposition: vertices
// are split into contiguous ranges so that "each process receives roughly
// the same number of edges". Every rank contributes the degree counts of
// its raw edge chunk; one allreduce yields the global degree vector, from
// which all ranks derive the same partition. O(n) memory per rank — the
// same cost the paper pays for its static ownership tables.
func EdgeBalancedPartition(c *mpi.Comm, n int64, localChunk []graph.RawEdge) (*partition.Partition, error) {
	degrees := make([]int64, n)
	for _, e := range localChunk {
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
			return nil, fmt.Errorf("dgraph: edge (%d,%d) out of range [0,%d)", e.U, e.V, n)
		}
		degrees[e.U]++
		if e.V != e.U {
			degrees[e.V]++
		}
	}
	global, err := c.AllreduceInt64s(degrees, mpi.OpSum)
	if err != nil {
		return nil, err
	}
	return partition.ByEdgeCount(global, c.Size()), nil
}

// Build assembles the distributed graph. Every rank passes the same global
// vertex count n and its own arbitrary chunk of the undirected edge list
// (chunks together must cover the whole input exactly once). The vertex
// space is split with the given partition; passing nil selects the even
// vertex split. Parallel edges — within a chunk or across chunks and ranks —
// merge by weight, summed in (sender rank, chunk order).
func Build(c *mpi.Comm, n int64, localChunk []graph.RawEdge, part *partition.Partition) (*DistGraph, error) {
	s, err := NewShuffle(c, n, part, 1)
	if err != nil {
		return nil, err
	}
	// Each undirected edge expands into its two directed arcs, routed to the
	// owner of the source vertex; a self loop is a single arc.
	w := s.Writer(0)
	for _, e := range localChunk {
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
			return nil, fmt.Errorf("dgraph: edge (%d,%d) out of range [0,%d)", e.U, e.V, n)
		}
		w.Reserve(s.Owner(e.U), 1, e.W == 1)
		if e.U != e.V {
			w.Reserve(s.Owner(e.V), 1, e.W == 1)
		}
	}
	s.Alloc()
	for _, e := range localChunk {
		w.Put(s.Owner(e.U), e.U, e.V, e.W)
		if e.U != e.V {
			w.Put(s.Owner(e.V), e.V, e.U, e.W)
		}
	}
	return s.Exchange(nil)
}

// BuildFromArcs assembles a distributed graph from directed arcs scattered
// arbitrarily across ranks and in any order: every arc is routed to the
// owner of its source vertex, parallel arcs are merged by weight (summed in
// sender rank, then slice order), and the usual CSR + ghost tables are built.
// The arc set must already be symmetric (for every a→b some rank must hold
// b→a of equal total weight), as a checkpointed coarse graph is.
func BuildFromArcs(c *mpi.Comm, n int64, part *partition.Partition, arcs []Arc) (*DistGraph, error) {
	s, err := NewShuffle(c, n, part, 1)
	if err != nil {
		return nil, err
	}
	w := s.Writer(0)
	for _, a := range arcs {
		if a.From < 0 || a.From >= n || a.To < 0 || a.To >= n {
			return nil, fmt.Errorf("dgraph: arc (%d,%d) out of range [0,%d)", a.From, a.To, n)
		}
		w.Reserve(s.Owner(a.From), 1, a.W == 1)
	}
	s.Alloc()
	for _, a := range arcs {
		w.Put(s.Owner(a.From), a.From, a.To, a.W)
	}
	return s.Exchange(nil)
}

// assemble is the receiving half of the pipeline: recv[q] is the frame rank q
// routed here, its arcs in the order q encoded them. Pass 1 validates every
// frame and histograms the sources — nothing is written to the CSR until all
// of them are known good; a prefix sum turns the histogram into Index; pass 2
// scatters each arc into its row in (sender rank, send order). Rows are then
// sorted by target (stably, and only when not already ascending), parallel
// arcs are summed left to right — i.e. in that arrival order — and the CSR is
// compacted in place. Once the ghost table is known, one more pass over the
// arcs fills Slot.
//
// The graph's arrays are spare's, re-sliced, wherever their capacity allows
// (spare is the zero graph when there is nothing to recycle), and the row
// cursors, sort scratch and ghost candidates are s's. Every array is written
// in full before it is read, except the two histograms, which are cleared.
func (s *Shuffle) assemble(recv [][]byte, spare *DistGraph) (*DistGraph, error) {
	c, n, part, sc := s.c, s.n, s.part, &s.scratch
	rank := c.Rank()
	base, hi := part.Range(rank)
	localN := hi - base
	dg := &DistGraph{
		Comm: c, Part: part, GlobalN: n,
		Base: base, LocalN: localN,
		Index:    resize(spare.Index, int(localN)+1),
		K:        resize(spare.K, int(localN)),
		SelfLoop: resize(spare.SelfLoop, int(localN)),
	}
	clear(dg.Index)

	pl := &placer{base: base, hi: hi, n: n, count: dg.Index}
	for q, f := range recv {
		if len(f) == 0 {
			continue
		}
		width, err := frameWidth(f, n)
		if err != nil {
			return nil, fmt.Errorf("%w: frame from rank %d: %v", ErrMalformedArcs, q, err)
		}
		var bad int
		if width == 24 {
			bad = pl.count64(f[1:])
		} else {
			bad = pl.count32(f[1:], width)
		}
		if bad < 0 {
			continue
		}
		a := arcAt(f, bad)
		if a.From < base || a.From >= hi {
			return nil, fmt.Errorf("%w: arc (%d,%d) from rank %d has a source rank %d does not own", ErrMalformedArcs, a.From, a.To, q, rank)
		}
		return nil, fmt.Errorf("%w: arc (%d,%d) from rank %d targets outside [0,%d)", ErrMalformedArcs, a.From, a.To, q, n)
	}
	var longest int64 // row length before merging: sizes the sort scratch
	for lv := int64(0); lv < localN; lv++ {
		longest = max(longest, dg.Index[lv+1])
		dg.Index[lv+1] += dg.Index[lv]
	}
	edges := resize(spare.Edges, int(dg.Index[localN]))
	sc.end = resize(sc.end, int(localN)) // write cursor per row; the row's end once scattered
	end := sc.end
	copy(end, dg.Index)
	pl.end, pl.edges = end, edges
	for _, f := range recv {
		if len(f) == 0 {
			continue
		}
		switch body := f[1:]; f[0] {
		case arcsUnit32:
			pl.placeUnit32(body)
		case arcsWeight32:
			pl.placeWeight32(body)
		default:
			pl.place64(body)
		}
	}

	// Sort, merge and compact row by row. The compacted row never starts
	// past the scattered one, so writing through out cannot clobber arcs
	// still to be read.
	sc.sort = resize(sc.sort, int(longest))
	cand := slices.Grow(sc.cand[:0], pl.remote) // one per remote arc at most: bounds the ghost candidates
	var out int64
	var localW float64
	for lv := int64(0); lv < localN; lv++ {
		row := edges[dg.Index[lv]:end[lv]]
		sortRow(row, sc.sort, n)
		dg.Index[lv] = out
		var k, self float64
		for i := 0; i < len(row); {
			to, w := row[i].To, row[i].W
			for i++; i < len(row) && row[i].To == to; i++ {
				w += row[i].W
			}
			edges[out] = graph.Edge{To: to, W: w}
			out++
			k += w
			localW += w
			if to == base+lv {
				self = w
			} else if to < base || to >= hi {
				cand = append(cand, to)
			}
		}
		dg.K[lv], dg.SelfLoop[lv] = k, self
	}
	dg.Index[localN] = out
	dg.Edges = edges[:out]
	if out < int64(len(edges))/2 {
		// Mostly parallel arcs: do not pin the scatter array for the graph's
		// lifetime.
		dg.Edges = slices.Clone(dg.Edges)
	}

	sc.cand, sc.tmp = cand, resize(sc.tmp, len(cand))
	ghosts := slices.Compact(sortIDs(cand, sc.tmp, n))
	dg.Ghosts = resize(spare.Ghosts, len(ghosts))
	copy(dg.Ghosts, ghosts)
	dg.GhostOwner = resize(spare.GhostOwner, len(ghosts))
	for i, g := range dg.Ghosts {
		dg.GhostOwner[i] = part.Owner(g)
	}
	if err := checkSlotSpace(localN, len(dg.Ghosts)); err != nil {
		return nil, err
	}
	dg.Slot = resize(spare.Slot, len(dg.Edges))
	sc.first = dg.fillSlots(sc.first)

	m2, err := c.AllreduceFloat64(localW, mpi.OpSum)
	if err != nil {
		return nil, err
	}
	dg.M2 = m2
	return dg, nil
}

// assembly is the receiving side's scratch, kept by its Shuffle: the row
// cursors, the row sort's buffer, the ghost candidates and their radix
// buffer, and fillSlots' buckets.
type assembly struct {
	end       []int64
	sort      []graph.Edge
	cand, tmp []int64
	first     []int32
}

// resize returns buf cut to n entries when its capacity allows, and a new
// slice of n otherwise. The entries are not cleared.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// The two radix sorts below take one stable counting pass per radixBits-wide
// digit of the largest ID, least significant first. They are two functions and
// not one generic over a key function: that one measured 1.5–2× slower on both
// element types (CHANGES.md, PR 19).
const (
	radixBits = 11
	radixMask = 1<<radixBits - 1
)

// sortIDs sorts ids, all in [0, n), ascending and returns them in ids or in tmp
// (of the same length), whichever the last pass wrote — O(len(ids)) where the
// comparison sort it replaces was the largest part of the ghost table's cost
// (one candidate per merged remote arc; DESIGN §17).
func sortIDs(ids, tmp []int64, n int64) []int64 {
	var next [radixMask + 1]int
	for shift := 0; shift < bits.Len64(uint64(n-1)); shift += radixBits {
		clear(next[:])
		for _, v := range ids {
			next[v>>shift&radixMask]++
		}
		sum := 0
		for d, k := range next {
			next[d], sum = sum, sum+k
		}
		for _, v := range ids {
			d := v >> shift & radixMask
			tmp[next[d]] = v
			next[d]++
		}
		ids, tmp = tmp, ids
	}
	return ids
}

// fillSlots computes Slot from Edges and Ghosts; every non-owned target is in
// Ghosts by construction. Ghost IDs are bucketed by their high bits, about one
// bucket per ghost, so an arc's search covers the bucket's few entries instead
// of the whole table: with a binary search of Ghosts forward of the row's
// previous hit here, BenchmarkBuild is 10–15 % slower, which is the whole
// difference between Build paying for its slots and not (CHANGES.md, PR 14).
//
// Slot must already be as long as Edges. The buckets live in first,
// re-sliced and returned.
func (dg *DistGraph) fillSlots(first []int32) []int32 {
	ghosts := dg.Ghosts
	shift := max(0, bits.Len64(uint64(dg.GlobalN))-bits.Len(uint(len(ghosts))))
	first = resize(first, int(dg.GlobalN>>shift)+2) // first[b]: ghosts below b<<shift
	clear(first)
	for _, g := range ghosts {
		first[g>>shift+1]++
	}
	for b := 1; b < len(first); b++ {
		first[b] += first[b-1]
	}
	for i, e := range dg.Edges {
		if dg.IsLocal(e.To) {
			dg.Slot[i] = int32(e.To - dg.Base)
			continue
		}
		b := e.To >> shift
		k, _ := slices.BinarySearch(ghosts[first[b]:first[b+1]], e.To)
		dg.Slot[i] = int32(dg.LocalN) + first[b] + int32(k)
	}
	return first
}

// sortRow sorts one scattered row by target (every target in [0, ids)),
// keeping arcs of equal target in arrival order, through scratch (at least as
// long as the row). A row that arrived ascending — a checkpoint replay, a sorted
// input file — is left alone. Short rows take a bottom-up merge sort over
// insertion-sorted runs; rows of radixMinRow arcs or more take radixSortRow.
// The merge sort earns its lines end to end: with the in-place,
// comparator-driven slices.SortStableFunc here instead, wall_s on the
// rmat-coarsen benchmark is 22 % higher (1.06 s against 0.87 s, ten of ten
// paired runs; CHANGES.md, PR 12).
func sortRow(row, scratch []graph.Edge, ids int64) {
	sorted := true
	for i := 1; i < len(row) && sorted; i++ {
		sorted = row[i-1].To <= row[i].To
	}
	if sorted {
		return
	}
	if len(row) >= radixMinRow {
		radixSortRow(row, scratch[:len(row)], ids)
		return
	}
	const run = 24
	n := len(row)
	for lo := 0; lo < n; lo += run {
		part := row[lo:min(lo+run, n)]
		for i := 1; i < len(part); i++ {
			e, j := part[i], i
			for ; j > 0 && part[j-1].To > e.To; j-- {
				part[j] = part[j-1]
			}
			part[j] = e
		}
	}
	src, dst := row, scratch[:n]
	for w := run; w < n; w *= 2 {
		for lo := 0; lo < n; lo += 2 * w {
			mid, hi := min(lo+w, n), min(lo+2*w, n)
			i, j, k := lo, mid, lo
			for ; i < mid && j < hi; k++ {
				if src[j].To < src[i].To { // strict: ties drain from the left run first
					dst[k] = src[j]
					j++
				} else {
					dst[k] = src[i]
					i++
				}
			}
			k += copy(dst[k:], src[i:mid])
			copy(dst[k:], src[j:hi])
		}
		src, dst = dst, src
	}
	if &src[0] != &row[0] {
		copy(row, src)
	}
}

// radixMinRow is the row length from which radixSortRow beats the merge sort
// whatever the width of the ID space: at 256 arcs it costs 14 ns/arc against
// 42 with 17-bit IDs and 30 against 44 with 40-bit ones; at 128 arcs the two
// cross (CHANGES.md, PR 19).
const radixMinRow = 256

// radixSortRow is sortIDs over arcs keyed by target: stable, so arcs of equal
// target stay in arrival order. tmp is as long as row.
func radixSortRow(row, tmp []graph.Edge, n int64) {
	var next [radixMask + 1]int
	src, dst := row, tmp
	for shift := 0; shift < bits.Len64(uint64(n-1)); shift += radixBits {
		clear(next[:])
		for i := range src {
			next[src[i].To>>shift&radixMask]++
		}
		sum := 0
		for d, k := range next {
			next[d], sum = sum, sum+k
		}
		for i := range src {
			d := src[i].To >> shift & radixMask
			dst[next[d]] = src[i]
			next[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &row[0] {
		copy(row, src)
	}
}

// Neighbors returns the adjacency slice of local vertex lv (global targets).
func (dg *DistGraph) Neighbors(lv int64) []graph.Edge {
	return dg.Edges[dg.Index[lv]:dg.Index[lv+1]]
}

// Global converts a local vertex index to its global ID.
func (dg *DistGraph) Global(lv int64) int64 { return dg.Base + lv }

// IsLocal reports whether global vertex g is owned by this rank.
func (dg *DistGraph) IsLocal(g int64) bool {
	return g >= dg.Base && g < dg.Base+dg.LocalN
}

// GhostSlot returns the position of global vertex g in Ghosts, by binary
// search. Per-arc code reads Slot instead; this is for the callers that hold
// only a global ID.
func (dg *DistGraph) GhostSlot(g int64) (int, bool) {
	return slices.BinarySearch(dg.Ghosts, g)
}

// Validate checks the local structural invariants the assembly promises:
// a well-formed CSR whose rows are strictly ascending by target (sorted,
// parallel arcs merged), degree and self-loop caches that match the rows bit
// for bit, a ghost table that is sorted and correctly owned, and the slot
// contract: Slot is parallel to Edges, an owned target's slot is its local
// index, any other target's slot names its own entry in Ghosts.
func (dg *DistGraph) Validate() error {
	if int64(len(dg.Index)) != dg.LocalN+1 || int64(len(dg.K)) != dg.LocalN || int64(len(dg.SelfLoop)) != dg.LocalN {
		return fmt.Errorf("dgraph: index/K/SelfLoop lengths %d/%d/%d, want %d/%d/%d",
			len(dg.Index), len(dg.K), len(dg.SelfLoop), dg.LocalN+1, dg.LocalN, dg.LocalN)
	}
	if dg.Index[0] != 0 || dg.Index[dg.LocalN] != int64(len(dg.Edges)) {
		return fmt.Errorf("dgraph: index spans [%d,%d], want [0,%d]", dg.Index[0], dg.Index[dg.LocalN], len(dg.Edges))
	}
	for lv := int64(0); lv < dg.LocalN; lv++ {
		if dg.Index[lv+1] < dg.Index[lv] {
			return fmt.Errorf("dgraph: index not monotone at %d", lv)
		}
	}
	if len(dg.GhostOwner) != len(dg.Ghosts) {
		return fmt.Errorf("dgraph: %d ghosts but %d owners", len(dg.Ghosts), len(dg.GhostOwner))
	}
	if len(dg.Slot) != len(dg.Edges) {
		return fmt.Errorf("dgraph: %d slots for %d arcs", len(dg.Slot), len(dg.Edges))
	}
	if err := checkSlotSpace(dg.LocalN, len(dg.Ghosts)); err != nil {
		return err
	}
	for i, g := range dg.Ghosts {
		if g < 0 || g >= dg.GlobalN || dg.IsLocal(g) {
			return fmt.Errorf("dgraph: ghost %d is locally owned or out of range", g)
		}
		if i > 0 && dg.Ghosts[i-1] >= g {
			return fmt.Errorf("dgraph: ghosts not sorted/unique at %d", i)
		}
		if dg.GhostOwner[i] != dg.Part.Owner(g) {
			return fmt.Errorf("dgraph: ghost %d has wrong owner", g)
		}
	}
	for lv := int64(0); lv < dg.LocalN; lv++ {
		var k, self float64
		row := dg.Neighbors(lv)
		slots := dg.Slot[dg.Index[lv]:dg.Index[lv+1]]
		for i, e := range row {
			if e.To < 0 || e.To >= dg.GlobalN {
				return fmt.Errorf("dgraph: vertex %d targets out-of-range vertex %d", dg.Global(lv), e.To)
			}
			if e.W < 0 {
				return fmt.Errorf("dgraph: arc (%d,%d) has negative weight", dg.Global(lv), e.To)
			}
			if i > 0 && row[i-1].To >= e.To {
				return fmt.Errorf("dgraph: row of vertex %d not strictly ascending at target %d", dg.Global(lv), e.To)
			}
			k += e.W
			if e.To == dg.Global(lv) {
				self = e.W
			}
			if dg.IsLocal(e.To) {
				if int64(slots[i]) != e.To-dg.Base {
					return fmt.Errorf("dgraph: arc (%d,%d) has slot %d, want the local index %d", dg.Global(lv), e.To, slots[i], e.To-dg.Base)
				}
			} else if g := int64(slots[i]) - dg.LocalN; g < 0 || g >= int64(len(dg.Ghosts)) || dg.Ghosts[g] != e.To {
				return fmt.Errorf("dgraph: arc (%d,%d) has slot %d, which is not the target's ghost slot", dg.Global(lv), e.To, slots[i])
			}
		}
		if dg.K[lv] != k || dg.SelfLoop[lv] != self {
			return fmt.Errorf("dgraph: vertex %d caches K=%g self=%g, row says K=%g self=%g",
				dg.Global(lv), dg.K[lv], dg.SelfLoop[lv], k, self)
		}
	}
	return nil
}

// GatherToRoot reconstructs the whole graph at rank 0 (as an in-memory CSR)
// for verification; other ranks return nil. Intended for tests and small
// graphs only. It is a shuffle to a partition in which rank 0 owns every
// vertex: each row arrives whole, from its one owner, already merged and
// sorted, so the assembly reproduces it arc for arc.
func (dg *DistGraph) GatherToRoot() (*graph.CSR, error) {
	bounds := make([]int64, dg.Comm.Size()+1)
	for r := 1; r < len(bounds); r++ {
		bounds[r] = dg.GlobalN
	}
	s, err := NewShuffle(dg.Comm, dg.GlobalN, &partition.Partition{Bounds: bounds}, 1)
	if err != nil {
		return nil, err
	}
	w := s.Writer(0)
	for _, e := range dg.Edges {
		w.Reserve(0, 1, e.W == 1)
	}
	s.Alloc()
	for lv := int64(0); lv < dg.LocalN; lv++ {
		for _, e := range dg.Neighbors(lv) {
			w.Put(0, dg.Global(lv), e.To, e.W)
		}
	}
	all, err := s.Exchange(nil)
	if err != nil || dg.Comm.Rank() != 0 {
		return nil, err
	}
	return &graph.CSR{N: all.GlobalN, Index: all.Index, Edges: all.Edges}, nil
}
