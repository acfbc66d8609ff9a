// Package dgraph implements the distributed graph representation of the
// paper's §IV: a 1-D decomposition where each rank owns a contiguous range
// of vertices and stores their adjacency lists in one CSR, plus a table of
// ghost vertices (vertices referenced by local edges but owned elsewhere).
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
// vertex space past 2³². Allocations are O(p), whatever the arc count. A
// graph keeps the Shuffle that assembled it, frames and scratch included,
// and Reshuffle hands it to the next shuffle: core's first coarsening writes
// into the frames Build filled.
//
// The receiver consumes its frames: pass 1 validates them, histograms the
// sources, interns each non-owned target — the one hash probe a ghost arc
// costs — and rewrites every record in place as its local row and its
// target's local index or ghost number; pass 2 places the rewritten records
// in their rows with no lookup. Unit-weight frames are placed, sorted and
// merged as bare keys, parallel arcs counted.
//
// The CSR stores an arc as a dense slot (DistGraph.Slot) and a weight
// (DistGraph.W), 12 bytes — or, when every merged arc weighs 1 (an unweighted
// simple input), the slot alone, 4 bytes: W is then nil and Row reads the
// weights from one read-only row of 1s. The slot is the local index of an
// owned target, LocalN + i for the ghost Ghosts[i]. State kept per endpoint —
// a community, a color — lives in one array of LocalN + len(Ghosts) entries
// and is read as state[Slot[i]]: one load per arc, no ownership branch and no
// hash. The global ID of a target is Target(Slot[i]), computed on demand; a
// caller holding only a global ID binary-searches the sorted Ghosts
// (GhostSlot).
package dgraph

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"distlouvain/internal/flat"
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

	// Index, Slot and W form the local CSR: the arcs of local vertex lv are
	// Index[lv] ≤ i < Index[lv+1] (Row), arc i leading to slot Slot[i] with
	// weight W[i]. Slot s is the owned vertex Base+s when s < LocalN, the
	// ghost Ghosts[s-LocalN] otherwise (Target). Every row is strictly
	// ascending by target (sorted, parallel arcs merged). W is nil when every
	// arc weighs 1; Row then reads the weights from ones.
	Index []int64
	Slot  []int32
	W     []float64

	// ones is a unit graph's weights: read-only 1s, as many as its longest
	// row has arcs.
	ones []float64

	// K and SelfLoop cache per-local-vertex weighted degree and self-loop
	// weight.
	K        []float64
	SelfLoop []float64

	// Ghosts lists (sorted) the global IDs of vertices referenced by local
	// edges but owned by other ranks; GhostOwner[i] is the owner of
	// Ghosts[i].
	Ghosts     []int64
	GhostOwner []int

	// shuffle is the Shuffle that assembled the graph, its frames and
	// scratch kept for the next one (Reshuffle).
	shuffle *Shuffle
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
// routed here, its arcs in the order q encoded them. It consumes the frames:
// pass 1 validates every frame, histograms the sources, interns every target
// this rank does not own and rewrites each record in place as its row and
// its target's local index or ghost number (placer) — nothing is written to
// the CSR until all of them are known good. The interned targets, sorted, are
// Ghosts, and a prefix sum turns the histogram into Index. Pass 2 places each
// arc in its row, in (sender rank, send order), as its target's sort key
// (slotKeys) and, unless every frame is unit-weight, its weight. Rows are then
// sorted by key (stably, and only when not already ascending), parallel arcs
// are summed left to right — i.e. in that arrival order — or, without placed
// weights, counted, and the CSR is compacted in place, every key turned into
// its slot. A graph whose merged arcs all weigh 1 keeps W nil; the first
// parallel arc of a unit-weight input gives it W, 1 for every arc written
// before it.
//
// The graph's arrays are spare's, re-sliced, wherever their capacity allows
// (spare is the zero graph when there is nothing to recycle), and the row
// cursors, sort scratch and ghost index are s's. Every array is written in
// full before it is read, except the source histogram, which is cleared.
func (s *Shuffle) assemble(recv [][]byte, spare *DistGraph) (*DistGraph, error) {
	c, n, part, sc := s.c, s.n, s.part, &s.scratch
	rank := c.Rank()
	base, hi := part.Range(rank)
	localN := hi - base
	if err := checkSlotSpace(localN, 0); err != nil {
		return nil, err
	}
	dg := &DistGraph{
		Comm: c, Part: part, GlobalN: n,
		Base: base, LocalN: localN,
		Index:    resize(spare.Index, int(localN)+1),
		K:        resize(spare.K, int(localN)),
		SelfLoop: resize(spare.SelfLoop, int(localN)),
	}
	clear(dg.Index)
	sc.ghosts.Reset()

	pl := &placer{base: base, hi: hi, n: n, count: dg.Index, ghosts: &sc.ghosts}
	var unitFrames, weightFrames bool
	for q, f := range recv {
		if len(f) == 0 {
			continue
		}
		width, err := frameWidth(f, n)
		if err != nil {
			return nil, fmt.Errorf("%w: frame from rank %d: %v", ErrMalformedArcs, q, err)
		}
		unitFrames = unitFrames || f[0] == arcsUnit32
		weightFrames = weightFrames || f[0] != arcsUnit32
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
	if err := checkSlotSpace(localN, sc.ghosts.Len()); err != nil {
		return nil, err
	}
	keys := dg.setGhosts(spare, sc)
	pl.nLow, pl.ghostKey = keys.nLow, sc.ghostKey

	var longest int64 // row length before merging: sizes the sort scratch
	for lv := int64(0); lv < localN; lv++ {
		longest = max(longest, dg.Index[lv+1])
		dg.Index[lv+1] += dg.Index[lv]
	}
	slot := resize(spare.Slot, int(dg.Index[localN])) // keys until compacted
	var wts []float64                                 // placed weights: none when every frame is unit-weight
	if weightFrames {
		wts = resize(spare.W, len(slot))
		if unitFrames {
			for i := range wts { // the unit frames' arcs, which pass 2 places without a weight
				wts[i] = 1
			}
		}
	}
	sc.end = resize(sc.end, int(localN)) // write cursor per row; the row's end once placed
	end := sc.end
	copy(end, dg.Index)
	pl.end, pl.slot, pl.w = end, slot, wts
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
	// past the placed one, so writing through out cannot clobber arcs still
	// to be read.
	sc.row, sc.sort = resize(sc.row, int(longest)), resize(sc.sort, int(longest))
	if wts != nil {
		sc.w = resize(sc.w, int(longest))
	}
	span := localN + int64(len(dg.Ghosts))
	merged := wts // the merged weights, written at out; nil while every one is 1
	var out, widest int64
	var localW float64
	for lv := int64(0); lv < localN; lv++ {
		lo := dg.Index[lv]
		rk, rw := slot[lo:end[lv]], []float64(nil)
		if wts != nil {
			rw = wts[lo:end[lv]]
		}
		sc.sortPlaced(rk, rw, span)
		dg.Index[lv] = out
		selfKey := keys.owned(lv)
		var k, self float64
		for i := 0; i < len(rk); {
			key, j := rk[i], i+1
			for j < len(rk) && rk[j] == key {
				j++
			}
			var w float64
			if wts != nil {
				w = rw[i]
				for _, x := range rw[i+1 : j] {
					w += x
				}
			} else {
				w = float64(j - i)
				if j > i+1 && merged == nil {
					merged = resize(spare.W, len(slot))
					for t := range merged[:out] {
						merged[t] = 1
					}
				}
			}
			slot[out] = keys.slot(key)
			if merged != nil {
				merged[out] = w
			}
			out++
			i = j
			k += w
			localW += w
			if key == selfKey {
				self = w
			}
		}
		dg.K[lv], dg.SelfLoop[lv] = k, self
		widest = max(widest, out-dg.Index[lv])
	}
	dg.Index[localN] = out
	dg.Slot = slot[:out]
	if merged != nil {
		dg.W = merged[:out]
	} else {
		dg.ones = make([]float64, widest)
		for i := range dg.ones {
			dg.ones[i] = 1
		}
	}
	if out < int64(len(slot))/2 {
		// Mostly parallel arcs: do not pin the placement arrays for the
		// graph's lifetime.
		dg.Slot = slices.Clone(dg.Slot)
		if dg.W != nil {
			dg.W = slices.Clone(dg.W)
		}
	}

	m2, err := c.AllreduceFloat64(localW, mpi.OpSum)
	if err != nil {
		return nil, err
	}
	dg.M2 = m2
	return dg, nil
}

// setGhosts fills Ghosts and GhostOwner from the targets pass 1 interned in
// sc.ghosts, maps each ghost's first-interned number to its key in
// sc.ghostKey, and returns the key map of the slot space.
func (dg *DistGraph) setGhosts(spare *DistGraph, sc *assembly) slotKeys {
	x := &sc.ghosts
	dg.Ghosts = resize(spare.Ghosts, x.Len())
	for i := range dg.Ghosts {
		dg.Ghosts[i] = x.Key(i)
	}
	sc.tmp = resize(sc.tmp, len(dg.Ghosts))
	copy(dg.Ghosts, sortIDs(dg.Ghosts, sc.tmp, dg.GlobalN))
	nLow, _ := slices.BinarySearch(dg.Ghosts, dg.Base)
	keys := slotKeys{nLow: int32(nLow), localN: int32(dg.LocalN)}
	sc.ghostKey = resize(sc.ghostKey, len(dg.Ghosts))
	dg.GhostOwner = resize(spare.GhostOwner, len(dg.Ghosts))
	for i, g := range dg.Ghosts {
		num, _ := x.Find(g)
		sc.ghostKey[num] = keys.ghost(i)
		dg.GhostOwner[i] = dg.Part.Owner(g)
	}
	return keys
}

// slotKeys numbers a rank's slot space in global-ID order, so that a row
// sorted by key is sorted by target: the nLow ghosts below Base first (key g
// for Ghosts[g]), then the owned vertices (nLow+lv for local vertex lv), then
// the ghosts above the owned range (g+LocalN, which is their slot).
type slotKeys struct {
	nLow, localN int32
}

// owned returns the key of local vertex lv.
func (k slotKeys) owned(lv int64) int32 { return k.nLow + int32(lv) }

// ghost returns the key of Ghosts[g].
func (k slotKeys) ghost(g int) int32 {
	if int32(g) < k.nLow {
		return int32(g)
	}
	return int32(g) + k.localN
}

// slot returns the slot the key names.
func (k slotKeys) slot(key int32) int32 {
	switch {
	case key < k.nLow:
		return k.localN + key
	case key < k.nLow+k.localN:
		return key - k.nLow
	}
	return key
}

// assembly is the receiving side's scratch, kept by its Shuffle: the ghost
// index and the key of each ghost by its number there, the ghost table's
// radix buffer, the row cursors, and the row sort's buffers.
type assembly struct {
	ghosts    flat.Index
	ghostKey  []int32
	tmp       []int64
	end       []int64
	row, sort []uint64
	w         []float64
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
// (of the same length), whichever the last pass wrote: the ghost table, one
// entry per distinct non-owned target, in O(len(ids)) (DESIGN §17).
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

// sortPlaced sorts one placed row — keys, every one in [0, span), and, when w
// is not nil, their weights — by key, keeping equal keys in arrival order. A
// row that arrived ascending (a checkpoint replay, a sorted input file) is
// left alone; any other goes through sc.row as (key, arrival) words for
// sortRow, and its weights are gathered by arrival afterwards.
func (sc *assembly) sortPlaced(keys []int32, w []float64, span int64) {
	if slices.IsSorted(keys) {
		return
	}
	row := sc.row[:len(keys)]
	for i, k := range keys {
		row[i] = uint64(k)<<32 | uint64(i)
	}
	sortRow(row, sc.sort, span)
	for i, x := range row {
		keys[i] = int32(x >> 32)
	}
	if w != nil {
		tmp := sc.w[:len(w)]
		for i, x := range row {
			tmp[i] = w[uint32(x)]
		}
		copy(w, tmp)
	}
}

// sortRow sorts one row of (key, arrival) words — a key in [0, ids) in the
// high 32 bits, the word's position in arrival order in the low 32 — through
// scratch (at least as long as the row). Arrivals are distinct, so sorting
// whole words keeps words of equal key in arrival order. assemble hands it
// rows whose key is the slotKeys key of the target. Short rows take a
// bottom-up merge sort over insertion-sorted runs; rows of radixMinRow words
// or more take radixSortRow. The merge sort earns its lines end to end: with
// the in-place, comparator-driven slices.SortStableFunc here instead, wall_s
// on the rmat-coarsen benchmark is 22 % higher (1.06 s against 0.87 s, ten of
// ten paired runs, recorded in CHANGES.md).
func sortRow(row, scratch []uint64, ids int64) {
	if len(row) >= radixMinRow {
		radixSortRow(row, scratch[:len(row)], ids)
		return
	}
	const run = 24
	n := len(row)
	for lo := 0; lo < n; lo += run {
		part := row[lo:min(lo+run, n)]
		for i := 1; i < len(part); i++ {
			x, j := part[i], i
			for ; j > 0 && part[j-1] > x; j-- {
				part[j] = part[j-1]
			}
			part[j] = x
		}
	}
	src, dst := row, scratch[:n]
	for w := run; w < n; w *= 2 {
		for lo := 0; lo < n; lo += 2 * w {
			mid, hi := min(lo+w, n), min(lo+2*w, n)
			i, j, k := lo, mid, lo
			for ; i < mid && j < hi; k++ {
				if src[j] < src[i] {
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
	if n > 0 && &src[0] != &row[0] {
		copy(row, src)
	}
}

// radixMinRow is the row length from which radixSortRow beats the merge sort
// whatever the width of the ID space: at 256 arcs it costs 14 ns/arc against
// 42 with 17-bit IDs and 30 against 44 with 40-bit ones; at 128 arcs the two
// cross (CHANGES.md, PR 19).
const radixMinRow = 256

// radixSortRow is sortIDs over the keys of (key, arrival) words: stable, so
// words of equal key stay in arrival order. tmp is as long as row.
func radixSortRow(row, tmp []uint64, n int64) {
	var next [radixMask + 1]int
	src, dst := row, tmp
	for shift := 32; shift < 32+bits.Len64(uint64(n-1)); shift += radixBits {
		clear(next[:])
		for _, x := range src {
			next[x>>shift&radixMask]++
		}
		sum := 0
		for d, k := range next {
			next[d], sum = sum, sum+k
		}
		for _, x := range src {
			d := x >> shift & radixMask
			dst[next[d]] = x
			next[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &row[0] {
		copy(row, src)
	}
}

// Row returns the arcs of local vertex lv: their slots and, parallel, their
// weights. The weights are read-only.
func (dg *DistGraph) Row(lv int64) ([]int32, []float64) {
	lo, hi := dg.Index[lv], dg.Index[lv+1]
	if dg.W == nil {
		return dg.Slot[lo:hi], dg.ones[:hi-lo]
	}
	return dg.Slot[lo:hi], dg.W[lo:hi]
}

// Target returns the global ID of slot s: Base+s for an owned vertex, the
// ghost's ID for LocalN+g.
func (dg *DistGraph) Target(s int32) int64 {
	if int64(s) < dg.LocalN {
		return dg.Base + int64(s)
	}
	return dg.Ghosts[int64(s)-dg.LocalN]
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
// a well-formed CSR with Slot and W parallel (or, without W, 1s enough for
// the longest row), every slot inside the slot
// space, rows strictly ascending by target (sorted, parallel arcs merged),
// degree and self-loop caches that match the rows bit for bit, and a ghost
// table that is sorted, owned elsewhere and correctly attributed.
func (dg *DistGraph) Validate() error {
	if int64(len(dg.Index)) != dg.LocalN+1 || int64(len(dg.K)) != dg.LocalN || int64(len(dg.SelfLoop)) != dg.LocalN {
		return fmt.Errorf("dgraph: index/K/SelfLoop lengths %d/%d/%d, want %d/%d/%d",
			len(dg.Index), len(dg.K), len(dg.SelfLoop), dg.LocalN+1, dg.LocalN, dg.LocalN)
	}
	if dg.W != nil && len(dg.W) != len(dg.Slot) {
		return fmt.Errorf("dgraph: %d weights for %d slots", len(dg.W), len(dg.Slot))
	}
	if dg.Index[0] != 0 || dg.Index[dg.LocalN] != int64(len(dg.Slot)) {
		return fmt.Errorf("dgraph: index spans [%d,%d], want [0,%d]", dg.Index[0], dg.Index[dg.LocalN], len(dg.Slot))
	}
	for lv := int64(0); lv < dg.LocalN; lv++ {
		if dg.Index[lv+1] < dg.Index[lv] {
			return fmt.Errorf("dgraph: index not monotone at %d", lv)
		}
		if dg.W == nil && dg.Index[lv+1]-dg.Index[lv] > int64(len(dg.ones)) {
			return fmt.Errorf("dgraph: vertex %d has %d unit arcs, more than its graph's %d 1s", dg.Global(lv), dg.Index[lv+1]-dg.Index[lv], len(dg.ones))
		}
	}
	if dg.W == nil && slices.ContainsFunc(dg.ones, func(w float64) bool { return w != 1 }) {
		return fmt.Errorf("dgraph: a unit graph's weights are not all 1")
	}
	if len(dg.GhostOwner) != len(dg.Ghosts) {
		return fmt.Errorf("dgraph: %d ghosts but %d owners", len(dg.Ghosts), len(dg.GhostOwner))
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
	slots := dg.LocalN + int64(len(dg.Ghosts))
	for lv := int64(0); lv < dg.LocalN; lv++ {
		var k, self float64
		prev := int64(-1)
		row, ws := dg.Row(lv)
		for i, s := range row {
			if s < 0 || int64(s) >= slots {
				return fmt.Errorf("dgraph: an arc of vertex %d has slot %d outside [0,%d)", dg.Global(lv), s, slots)
			}
			to, w := dg.Target(s), ws[i]
			if w < 0 {
				return fmt.Errorf("dgraph: arc (%d,%d) has negative weight", dg.Global(lv), to)
			}
			if to <= prev {
				return fmt.Errorf("dgraph: row of vertex %d not strictly ascending at target %d", dg.Global(lv), to)
			}
			prev = to
			k += w
			if to == dg.Global(lv) {
				self = w
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
	for lv := int64(0); lv < dg.LocalN; lv++ {
		row, ws := dg.Row(lv)
		w.Reserve(0, len(row), !slices.ContainsFunc(ws, func(wt float64) bool { return wt != 1 }))
	}
	s.Alloc()
	for lv := int64(0); lv < dg.LocalN; lv++ {
		row, ws := dg.Row(lv)
		for i, t := range row {
			w.Put(0, dg.Global(lv), dg.Target(t), ws[i])
		}
	}
	all, err := s.Exchange(nil)
	if err != nil || dg.Comm.Rank() != 0 {
		return nil, err
	}
	// Rank 0 owns every vertex of the gathered graph: a slot is a global ID.
	edges := make([]graph.Edge, 0, len(all.Slot))
	for v := int64(0); v < all.LocalN; v++ {
		row, ws := all.Row(v)
		for i, t := range row {
			edges = append(edges, graph.Edge{To: int64(t), W: ws[i]})
		}
	}
	return &graph.CSR{N: all.GlobalN, Index: all.Index, Edges: edges}, nil
}
