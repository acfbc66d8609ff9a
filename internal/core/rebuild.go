package core

import (
	"fmt"
	"slices"
	"time"

	"distlouvain/internal/dgraph"
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

// translateSlots returns the new community of every live community slot
// (refs > 0), addressed like st.refs; a dead slot's entry is meaningless. The
// owned slots copy ren.newOwned; the live non-owned ones are the request lists
// (current: rebuild's Step 4 refreshed them), ascending by global ID owner
// after owner, and ren.remote is their sorted superset, so one forward walk
// over both resolves them without a search per slot. It rejects references to
// dead or unresolved communities.
func (st *phaseState) translateSlots(ren *renumbering) ([]int64, error) {
	bySlot := make([]int64, len(st.refs))
	rest := bySlot[copy(bySlot, ren.newOwned):]
	for i := range rest {
		rest[i] = -1
	}
	j := 0
	for q, gids := range st.reqGIDs {
		for i, gid := range gids {
			for j < len(ren.remote) && ren.remote[j] < gid {
				j++
			}
			if j < len(ren.remote) && ren.remote[j] == gid {
				bySlot[st.reqSlots[q][i]] = ren.newRemote[j]
			}
		}
	}
	for s, r := range st.refs {
		if r > 0 && bySlot[s] < 0 {
			return nil, fmt.Errorf("core: referenced community %d is empty or was never resolved", st.gidOf(int32(s)))
		}
	}
	return bySlot, nil
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

	ren, totalNew, err := st.renumber(extraIDs)
	if err != nil {
		return nil, nil, err
	}

	// Step 5: partial coarse edge lists, written straight into the frames of
	// Step 6's shuffle. Every local fine arc v→u maps to the coarse arc
	// new(comm(v))→new(comm(u)); parallel arcs merge. Both kernels emit each
	// coarse pair exactly once per rank, and the assembly places arcs stably,
	// so a pair's parallel arcs sum in sender rank order: the coarse graph
	// depends on the fine graph and the rank count, never on the thread count
	// or the emission order within a rank.
	//
	// Steps 6–7: redistribute to an even vertex partition and rebuild the CSR
	// (the shuffle routes each arc to the owner of its source).
	c := st.dg.Comm
	part := partition.ByVertexCount(totalNew, c.Size())
	if st.cfg.oracle.refKernels {
		ndg, err := dgraph.BuildFromArcs(c, totalNew, part, st.coarseArcsMap(ren))
		return ndg, ren, err
	}
	bySlot, err := st.translateSlots(ren)
	if err != nil {
		return nil, nil, err
	}
	sh, err := dgraph.NewShuffle(c, totalNew, part, st.cfg.Threads)
	if err != nil {
		return nil, nil, err
	}
	st.coarseArcs(bySlot, sh)
	ndg, err := sh.Exchange()
	if err != nil {
		return nil, nil, err
	}
	return ndg, ren, nil
}

// renumber is Steps 1–4 of rebuild: the old→new community translation and the
// number of new communities (collective).
func (st *phaseState) renumber(extraIDs []int64) (*renumbering, int64, error) {
	c := st.dg.Comm
	p := c.Size()

	// Steps 1–2: surviving owned communities, renumbered locally.
	ren, survivors := st.renumberOwned()

	// Step 3: global renumbering by exclusive prefix sum.
	ta := time.Now()
	myBase, err := c.ExscanInt64(survivors)
	if err != nil {
		return nil, 0, err
	}
	totalNew, err := c.AllreduceInt64(survivors, mpi.OpSum)
	st.steps.Allreduce += time.Since(ta)
	if err != nil {
		return nil, 0, err
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
		return nil, 0, err
	}
	resp := make([][]byte, p)
	for q := 0; q < p; q++ {
		ids, err := mpi.DecodeDeltaInt64s(reqs[q])
		if err != nil {
			return nil, 0, malformed("renumber request", q, "%v", err)
		}
		for i, cid := range ids {
			if !st.dg.IsLocal(cid) || ren.newOwned[cid-st.dg.Base] < 0 {
				return nil, 0, malformed("renumber request", q, "empty or non-owned community %d", cid)
			}
			ids[i] = ren.newOwned[cid-st.dg.Base]
		}
		resp[q] = mpi.EncodeDeltaInt64s(ids)
	}
	answers, err := c.Alltoall(resp)
	if err != nil {
		return nil, 0, err
	}
	for q := 0; q < p; q++ {
		vals, err := mpi.DecodeDeltaInt64s(answers[q])
		if err != nil {
			return nil, 0, malformed("renumber reply", q, "%v", err)
		}
		if len(vals) != len(reqByOwner[q]) {
			return nil, 0, malformed("renumber reply", q, "%d entries, want %d", len(vals), len(reqByOwner[q]))
		}
		ren.newRemote = append(ren.newRemote, vals...)
	}
	return ren, totalNew, nil
}

// coarseArcs is Step 5 grouped by source community, written into the frames
// of sh. One stable counting sort lists the local vertices by the community
// slot they sit in (slots are dense, so the histogram is an array; members
// stay in ascending lv). Then, source community by source community, a worker
// walks the members' arcs twice through its rowAcc at the target's community
// slot ci[Slot[i]] — the sweep's accumulator, one epoch per source community:
// the first walk counts the distinct targets, so that every frame is
// allocated at its exact size before anything is written, and the second sums
// W per target and puts (new(src), new(key), w[key]) over the first-seen key
// list into the frame of new(src)'s owner. No hash, no table sized by the
// fine arcs, no intermediate arc list, random access confined to one
// community's neighbourhood.
//
// Workers split the slot range, and each writes its own range of every frame,
// so a coarse pair belongs to exactly one of them: it leaves the rank once,
// its weight accumulated over ascending lv and then arc order whatever Threads
// is, and every frame holds its arcs in slot order. coarseArcsMap is the
// oracle. It returns the number of coarse arcs.
//
// bySlot is translateSlots' table: the new community of every live slot.
func (st *phaseState) coarseArcs(bySlot []int64, sh *dgraph.Shuffle) int {
	dg, cs := st.dg, &st.coarse
	slots := len(st.refs)
	// Slot s's members are members[first[s]:first[s+1]].
	first := reslice(cs.first, slots+2)
	for _, c := range st.comm {
		first[c+2]++
	}
	for s := 2; s < len(first); s++ {
		first[s] += first[s-1]
	}
	members := reslice(cs.members, int(dg.LocalN))
	for lv, c := range st.comm {
		members[first[c+1]] = int32(lv) // first[s+1] is slot s's cursor until it reaches slot s+1's start
		first[c+1]++
	}

	// Worker w takes slots cuts[w]..cuts[w+1], cut where the running member
	// arc count passes w/nw of the total.
	nw := st.cfg.Threads
	cuts := reslice(cs.cuts, nw+1)
	for w, s, run := 1, 0, int64(0); w < nw; w++ {
		for ; s < slots && run*int64(nw) < dg.Index[dg.LocalN]*int64(w); s++ {
			for _, lv := range members[first[s]:first[s+1]] {
				run += dg.Index[lv+1] - dg.Index[lv]
			}
		}
		cuts[w] = s
	}
	cuts[nw] = slots

	cs.first, cs.members, cs.cuts, cs.bySlot, cs.sh = first, members, cuts, bySlot, sh
	if cs.count == nil {
		cs.count = func(_, lo, hi int) {
			for w := lo; w < hi; w++ {
				st.countSlots(w)
			}
		}
		cs.write = func(_, lo, hi int) {
			for w := lo; w < hi; w++ {
				st.aggregateSlots(w)
			}
		}
	}
	st.fitAccs()
	par.For(nw, nw, cs.count)
	sh.Alloc()
	par.For(nw, nw, cs.write)
	cs.bySlot, cs.sh = nil, nil
	return sh.Len()
}

// coarsening is coarseArcs' state, kept for the run like the phase state:
// the source communities' members and the workers' slot ranges, what the call
// at hand reads (bySlot) and writes (sh), and the par.For bodies of its two
// walks, built once so that an aggregation allocates no closure.
type coarsening struct {
	first, members []int32
	cuts           []int
	bySlot         []int64
	sh             *dgraph.Shuffle
	count, write   func(w, lo, hi int)
}

// countSlots is worker w's first walk over its source communities: it
// reserves, in the frame of each one's owner, one arc per distinct target
// community. The weights are not known yet, so the reservation is weighted.
func (st *phaseState) countSlots(w int) {
	dg, ci, cs := st.dg, st.ci, &st.coarse
	acc, out := &st.accs[w], cs.sh.Writer(w)
	first, members := cs.first, cs.members
	for s := cs.cuts[w]; s < cs.cuts[w+1]; s++ {
		if first[s] == first[s+1] {
			continue
		}
		acc.next()
		stamp, epoch := acc.stamp, acc.epoch
		k := 0
		for _, lv := range members[first[s]:first[s+1]] {
			for _, t := range dg.Slot[dg.Index[lv]:dg.Index[lv+1]] {
				if c := ci[t]; stamp[c] != epoch {
					stamp[c] = epoch
					k++
				}
			}
		}
		out.Reserve(cs.sh.Owner(cs.bySlot[s]), k, false)
	}
}

// aggregateSlots is worker w's second walk over the same source communities:
// it sums each one's arcs per target community and puts the coarse arcs in
// first-seen target order.
func (st *phaseState) aggregateSlots(w int) {
	dg, ci, cs := st.dg, st.ci, &st.coarse
	acc, out := &st.accs[w], cs.sh.Writer(w)
	first, members, bySlot := cs.first, cs.members, cs.bySlot
	for s := cs.cuts[w]; s < cs.cuts[w+1]; s++ {
		if first[s] == first[s+1] {
			continue
		}
		acc.next()
		sum, stamp, epoch, keys := acc.w, acc.stamp, acc.epoch, acc.keys
		for _, lv := range members[first[s]:first[s+1]] {
			row := dg.Index[lv]
			edges := dg.Edges[row:dg.Index[lv+1]]
			for i, t := range dg.Slot[row:dg.Index[lv+1]] {
				c := ci[t]
				if stamp[c] != epoch {
					stamp[c] = epoch
					sum[c] = 0
					keys = append(keys, c)
				}
				sum[c] += edges[i].W
			}
		}
		acc.keys = keys
		q, from := cs.sh.Owner(bySlot[s]), bySlot[s]
		for _, c := range keys {
			out.Put(q, from, bySlot[c], sum[c])
		}
	}
}
