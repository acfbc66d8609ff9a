package core

import (
	"fmt"
	"slices"
	"time"

	"distlouvain/internal/dgraph"
	"distlouvain/internal/flat"
	"distlouvain/internal/mpi"
	"distlouvain/internal/obsv"
	"distlouvain/internal/par"
	"distlouvain/internal/partition"
)

// renumbering is one rebuild's old→new community translation, held as dense
// and sorted arrays rather than a hash map: owned communities index newOwned
// directly, the non-owned ones this rank references sit in the sorted remote
// list with their new IDs alongside.
type renumbering struct {
	base      int64   // first owned old ID
	newOwned  []int64 // new ID of owned community base+lc; −1 when it died
	remote    []int64 // sorted distinct non-owned old IDs referenced here
	newRemote []int64 // new ID of remote[i]
}

// newOf translates one old community ID. It returns −1 for an owned
// community that no longer has members and for a non-owned ID outside the
// referenced set.
func (r *renumbering) newOf(cid int64) int64 {
	if lc := cid - r.base; lc >= 0 && lc < int64(len(r.newOwned)) {
		return r.newOwned[lc]
	}
	if i, ok := slices.BinarySearch(r.remote, cid); ok {
		return r.newRemote[i]
	}
	return -1
}

// translate fills dst[i] = newOf(src[i]), rejecting references to dead or
// unresolved communities.
func (r *renumbering) translate(dst, src []int64) error {
	for i, cid := range src {
		if dst[i] = r.newOf(cid); dst[i] < 0 {
			return fmt.Errorf("core: referenced community %d is empty or was never resolved", cid)
		}
	}
	return nil
}

// renumberOwned is Steps 1–2 of rebuild: the owned communities that still
// have members (the community table is authoritative: size > 0 means some
// vertex, anywhere, is assigned to it) numbered 0, 1, … in ID order, the
// dead ones marked −1. It returns the count of survivors too.
func (st *phaseState) renumberOwned() (*renumbering, int64) {
	ren := &renumbering{base: st.dg.Base, newOwned: make([]int64, st.dg.LocalN)}
	var survivors int64
	for lc, size := range st.cSize[:st.dg.LocalN] {
		ren.newOwned[lc] = -1
		if size > 0 {
			ren.newOwned[lc] = survivors
			survivors++
		}
	}
	return ren, survivors
}

// sortedRemote sorts and dedupes ids (none owned by this rank) in place and
// cuts the result into per-owner request lists: ownership ranges are
// contiguous, so each rank's share is one ascending run.
func sortedRemote(part *partition.Partition, ids []int64) (all []int64, byOwner [][]int64) {
	slices.Sort(ids)
	all = slices.Compact(ids)
	byOwner = make([][]int64, part.Size())
	rest := all
	for q := range byOwner {
		_, hi := part.Range(q)
		k, _ := slices.BinarySearch(rest, hi)
		byOwner[q], rest = rest[:k], rest[k:]
	}
	return all, byOwner
}

// translateEndpoints returns the new community of every arc endpoint,
// addressed by dg.Slot like st.ci: each live community slot is translated
// once, then every endpoint copies its slot's answer. It rejects references
// to dead or unresolved communities.
func (st *phaseState) translateEndpoints(ren *renumbering) ([]int64, error) {
	bySlot := make([]int64, len(st.refs))
	for s, r := range st.refs {
		if r == 0 {
			continue
		}
		cid := st.gidOf(int32(s))
		if bySlot[s] = ren.newOf(cid); bySlot[s] < 0 {
			return nil, fmt.Errorf("core: referenced community %d is empty or was never resolved", cid)
		}
	}
	newOf := make([]int64, len(st.ci))
	for e, c := range st.ci {
		newOf[e] = bySlot[c]
	}
	return newOf, nil
}

// rebuild performs the distributed graph reconstruction of Fig. 1 at the
// end of a phase. extraIDs lists additional old community IDs this rank
// needs translated (the labels held in its slice of the original-vertex
// assignment); the returned renumbering covers every old community
// referenced by local vertices, local neighbourhoods and extraIDs.
//
// Steps (numbering as in the paper):
//  1. count surviving local communities and renumber them from 0;
//  2. drop owned community IDs no longer associated with any vertex;
//  3. renumber globally via an exclusive prefix sum;
//  4. resolve new IDs for old communities referenced remotely;
//  5. build partial new edge lists from local adjacencies;
//  6. redistribute so every rank owns an equal share of new vertices;
//  7. rebuild CSR index/edge arrays.
func (st *phaseState) rebuild(extraIDs []int64) (*dgraph.DistGraph, *renumbering, error) {
	sp := st.tr().Begin(obsv.KindStep, "rebuild")
	defer sp.End()
	t0 := time.Now()
	defer func() { st.steps.Rebuild += time.Since(t0) }()
	c := st.dg.Comm
	p := c.Size()

	// Steps 1–2: surviving owned communities, renumbered locally.
	ren, survivors := st.renumberOwned()

	// Step 3: global renumbering by exclusive prefix sum.
	ta := time.Now()
	myBase, err := c.ExscanInt64(survivors)
	if err != nil {
		return nil, nil, err
	}
	totalNew, err := c.AllreduceInt64(survivors, mpi.OpSum)
	st.steps.Allreduce += time.Since(ta)
	if err != nil {
		return nil, nil, err
	}
	for lc, n := range ren.newOwned {
		if n >= 0 {
			ren.newOwned[lc] = myBase + n
		}
	}

	// Step 4: resolve old→new IDs for every referenced non-owned community.
	// What local vertices and ghosts reference is what the fetch asks for.
	if st.reqStale {
		st.rebuildRequests()
	}
	refs := slices.Concat(st.reqGIDs...)
	for _, cid := range extraIDs {
		if !st.dg.IsLocal(cid) {
			refs = append(refs, cid)
		}
	}
	var reqByOwner [][]int64
	ren.remote, reqByOwner = sortedRemote(st.dg.Part, refs)
	ren.newRemote = make([]int64, 0, len(ren.remote))
	// Both directions are ascending ID streams (requests are sorted;
	// survivor renumbering is order-preserving, so replies to a sorted
	// request are ascending too), so they ship as delta varints.
	send := make([][]byte, p)
	for q := 0; q < p; q++ {
		send[q] = mpi.EncodeDeltaInt64s(reqByOwner[q])
	}
	reqs, err := c.Alltoall(send)
	if err != nil {
		return nil, nil, err
	}
	resp := make([][]byte, p)
	for q := 0; q < p; q++ {
		ids, err := mpi.DecodeDeltaInt64s(reqs[q])
		if err != nil {
			return nil, nil, malformed("renumber request", q, "%v", err)
		}
		for i, cid := range ids {
			if !st.dg.IsLocal(cid) || ren.newOwned[cid-st.dg.Base] < 0 {
				return nil, nil, malformed("renumber request", q, "empty or non-owned community %d", cid)
			}
			ids[i] = ren.newOwned[cid-st.dg.Base]
		}
		resp[q] = mpi.EncodeDeltaInt64s(ids)
	}
	answers, err := c.Alltoall(resp)
	if err != nil {
		return nil, nil, err
	}
	for q := 0; q < p; q++ {
		vals, err := mpi.DecodeDeltaInt64s(answers[q])
		if err != nil {
			return nil, nil, malformed("renumber reply", q, "%v", err)
		}
		if len(vals) != len(reqByOwner[q]) {
			return nil, nil, malformed("renumber reply", q, "%d entries, want %d", len(vals), len(reqByOwner[q]))
		}
		ren.newRemote = append(ren.newRemote, vals...)
	}

	// Step 5: partial coarse edge lists. Every local fine arc v→u maps to
	// the coarse arc new(comm(v))→new(comm(u)); parallel arcs merge. The new
	// community of every local vertex and of every ghost is resolved once
	// here (translateEndpoints), so the per-arc work below reads one
	// slot-addressed array.
	//
	// Arcs may leave this step in any order: BuildFromArcs places them
	// stably, so parallel arcs sum in (sender rank, emission order) — fixed
	// by the graph and the thread count, never by hash layout. Both kernels
	// emit each coarse pair at most once per worker in a deterministic order.
	newOf, err := st.translateEndpoints(ren)
	if err != nil {
		return nil, nil, err
	}
	var arcs []dgraph.Arc
	if st.cfg.oracle.refKernels {
		arcs = st.coarseArcsMap(ren)
	} else {
		arcs = st.coarseArcsFlat(newOf)
	}

	// Steps 6–7: redistribute to an even vertex partition and rebuild the
	// CSR (BuildFromArcs routes each arc to the owner of its source).
	newPart := partition.ByVertexCount(totalNew, p)
	ndg, err := dgraph.BuildFromArcs(c, totalNew, newPart, arcs)
	if err != nil {
		return nil, nil, err
	}
	return ndg, ren, nil
}

// coarseArcsFlat accumulates the partial coarse arcs of Step 5 in per-worker
// flat (src,dst) tables, each sized once from its share of the fine arcs, and
// concatenates the workers' pairs in worker order, each in first-seen order.
// A pair that straddles workers is emitted once per worker; the assembly sums
// such duplicates in emission order, like it does duplicates across ranks.
// Within a worker, each pair's weight accumulates in CSR visit order, so the
// final per-pair sums depend only on the graph and the thread count — never
// on hash layout. At Threads=1 the sums are bit-identical to the sequential
// map reference.
//
// newOf is the new community of every arc endpoint, addressed by dg.Slot like
// st.ci.
func (st *phaseState) coarseArcsFlat(newOf []int64) []dgraph.Arc {
	dg := st.dg
	nw := st.cfg.Threads
	tabs := make([]*flat.PairTable, nw)
	par.For(int(dg.LocalN), nw, func(w, lo, hi int) {
		tab := flat.NewPairTable(int(dg.Index[hi] - dg.Index[lo]))
		for lv := lo; lv < hi; lv++ {
			a := newOf[lv]
			for i := dg.Index[lv]; i < dg.Index[lv+1]; i++ {
				tab.Add(a, newOf[dg.Slot[i]], dg.Edges[i].W)
			}
		}
		tabs[w] = tab
	})
	tabs = slices.DeleteFunc(tabs, func(t *flat.PairTable) bool { return t == nil }) // unspawned empty ranges
	var total int
	for _, tab := range tabs {
		total += tab.Len()
	}
	arcs := make([]dgraph.Arc, 0, total)
	for _, tab := range tabs {
		for i := 0; i < tab.Len(); i++ {
			a, b, wt := tab.At(i)
			arcs = append(arcs, dgraph.Arc{From: a, To: b, W: wt})
		}
	}
	return arcs
}
